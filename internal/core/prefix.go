package core

import (
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Restore is re-execution. Threads are goroutines and cannot be
// serialized, so an attempt never loads saved state: it reaches a
// point in an execution by forcing a known prefix schedule for exactly
// that many committed events, then checks that it arrived where the
// source says it should — the running digest of the committed events
// and the world's state digest must both match. Only then does the
// director take over. Two sources name such a point, and both use the
// one strategy below:
//
//   - a recording checkpoint (checkpoint.go): the prefix is the
//     production strategy over the recorded seeds, re-run draw for
//     draw;
//   - a prefix snapshot of a parent attempt (snapshot.go): the prefix
//     is the parent's captured grant order.
//
// A mismatch means the source and this execution disagree about the
// prefix, so enforcement past the boundary would be meaningless: the
// attempt ends diverged, and runAttempt notes which source lied.
type prefixStrategy struct {
	prefix sched.Strategy // forced source of the first boundary picks
	dir    *director
	world  *vsys.World

	boundary   uint64 // committed events in the prefix
	wantEvents uint64 // event digest the prefix must end on
	wantWorld  uint64 // world digest the prefix must end on
	// atBoundary, when non-nil, runs once the boundary has validated
	// (the checkpoint source flips the world into Replay mode there).
	atBoundary func()

	steps    uint64        // committed events so far
	digest   *trace.Digest // folds the prefix's committed events
	switched bool
	mismatch bool
}

func newPrefixStrategy(prefix sched.Strategy, dir *director, world *vsys.World, boundary, wantEvents, wantWorld uint64, atBoundary func()) *prefixStrategy {
	return &prefixStrategy{
		prefix: prefix, dir: dir, world: world,
		boundary: boundary, wantEvents: wantEvents, wantWorld: wantWorld,
		atBoundary: atBoundary,
		digest:     trace.NewDigest(),
	}
}

// Pick implements sched.Strategy. A prefix source that cannot honor
// its own next pick (a forced thread that is not runnable) is a
// boundary mismatch like a digest disagreement.
func (p *prefixStrategy) Pick(view *sched.PickView) (trace.TID, bool) {
	if p.steps < p.boundary {
		tid, ok := p.prefix.Pick(view)
		if !ok {
			p.mismatch = true
		}
		return tid, ok
	}
	if !p.switched {
		p.switched = true
		p.mismatch = p.digest.Sum() != p.wantEvents || p.world.Digest() != p.wantWorld
		if !p.mismatch && p.atBoundary != nil {
			p.atBoundary()
		}
	}
	if p.mismatch {
		return trace.NoTID, false
	}
	return p.dir.Pick(view)
}

// OnEvent implements sched.Observer, folding the prefix's committed
// events into the digest the boundary check compares.
func (p *prefixStrategy) OnEvent(ev trace.Event) uint64 {
	if p.steps < p.boundary {
		p.digest.Entry(trace.EntryOf(ev))
	}
	p.steps++
	return 0
}
