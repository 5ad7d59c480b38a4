package core

import (
	"slices"

	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Snapshot-tree replay search. Sibling attempts in the directed
// frontier share long identical flip-set prefixes: a child's schedule
// is byte-identical to its parent's until the child's newly added flip
// can first engage. With ReplayOptions.PrefixSnapshots on, a directed
// attempt captures engine state and boundary digests at scheduler
// quiescent points (sched.QuiescentObserver fires at the top of a
// scheduling round, before the strategy picks — the instant at which
// the director's pick-side state still describes the committed prefix)
// into a search.SnapshotCache keyed by the attempt's flip-set prefix; a
// child attempt resumes from the deepest safe snapshot and executes
// only its divergent suffix.
//
// A snapshot keeps no world state, only digests: resuming is
// re-execution (prefix.go). The prefix strategy forces the parent's
// captured grant order and validates the event and world digests
// at the boundary before handing the schedule to the director. What
// resuming actually saves is everything *around* the raw execution:
// the director's per-pick sketch/flip bookkeeping collapses to forced
// grants, and the race detector — the dominant per-event cost — skips
// the prefix entirely, resuming from a boundary-state clone
// (race.Detector.Clone) that a suffixFeed feeds only the events past
// the boundary. The reproduced schedule is unchanged: the order
// capture spans the whole execution, forced prefix included, so a
// reproduction's FullOrder is exactly what a from-scratch attempt
// would have captured.
//
// Safety bound: a snapshot of the parent at step S is usable for a
// child adding flip f only if the child's own schedule through S
// provably equals the parent's. The child differs from the parent only
// by f, and f can influence a pick only once the director could hold
// f's access — which requires its thread, hold := f.pair.First, to
// have executed hold.TCount-1 events. Snapshots record the parent's
// per-thread progress, so the engine accepts a snapshot only while
// executed[hold.TID]+1 < hold.TCount (strictly before the hold
// identity can appear as a candidate); progress is monotone in the
// step, so the accepted set is a step-prefix and "deepest accepted" is
// well defined. p.FirstSeq — where the parent actually granted the
// access — upper-bounds the probe.

// snapKey is a flip-set prefix's snapshot-cache key: the schedule
// identity of the deterministic directed attempt that executes that
// prefix.
func snapKey(digest uint64, flipKey string) string {
	return trace.ScheduleCacheKey(digest, flipKey)
}

// snapPlan is the per-attempt snapshot participation, composed by the
// engine: where to store captures (selfKey names this attempt's own
// prefix; empty disables capture, e.g. at max flip depth where no
// child will ever exist) and where to restore from (parentKey/bound
// name the parent prefix and the new flip's upper probe bound; empty/0
// for root attempts).
type snapPlan struct {
	cache     *search.SnapshotCache
	selfKey   string
	parentKey string
	bound     uint64
}

// dirState is the director's pick-side state at a capture point —
// everything OnEvent alone cannot re-establish in a restored child.
// The executed counts double as the safety-bound witness.
type dirState struct {
	k           int
	last        trace.TID
	soft        bool
	exhaustStep uint64
	executed    perThread[uint64]
	// done holds the keys of flips already released at the capture
	// point. Keyed by flip identity, not index: the child's flip slice
	// contains one more flip and is re-sorted.
	done map[string]bool
}

func captureDirState(d *director) dirState {
	done := make(map[string]bool, len(d.flips))
	for i, f := range d.flips {
		if d.flipDone[i] {
			done[f.key] = true
		}
	}
	return dirState{k: d.k, last: d.last, soft: d.soft,
		exhaustStep: d.exhaustStep, executed: slices.Clone(d.executed), done: done}
}

// installDirState primes a restored child's fresh director with the
// parent's capture-point state. The director still observes the forced
// prefix normally (OnEvent re-derives executed and partner-released
// flips, idempotently over these values); installing up front covers
// the parts only Pick ever advanced — the sketch cursor, stickiness,
// soft mode, forced flip releases.
func installDirState(d *director, st dirState) {
	d.k = st.k
	d.last = st.last
	d.soft = st.soft
	d.exhaustStep = st.exhaustStep
	d.executed = append(d.executed[:0], st.executed...)
	for i, f := range d.flips {
		if st.done[f.key] {
			d.flipDone[i] = true
		}
	}
}

// snapState is the engine payload stored in a search.Snapshot: the
// director's pick-side state and a master detector clone. Restores
// re-clone det rather than adopt it, so one snapshot serves any number
// of children and stays immutable under concurrent workers.
type snapState struct {
	dir dirState
	det *race.Detector
}

// snapOverhead is the flat per-snapshot byte charge on top of the
// order slice and detector footprint.
const snapOverhead = 256

// snapInterval is the first capture cadence in committed events; the
// interval doubles every snapDoubleEvery captures so long executions
// keep a bounded, geometrically thinning snapshot ladder.
const (
	snapInterval    = 8
	snapDoubleEvery = 12
)

// snapshotter is the attempt-side observer: it folds the committed
// events past any resume boundary into the running digest captures
// record (the prefix strategy folds the forced prefix), and — when
// capturing — stores engine snapshots at quiescent points on the
// deterministic cadence above. Registered only when PrefixSnapshots
// is on; attempts without it keep the exact pre-snapshot observer set.
type snapshotter struct {
	world  *vsys.World
	cap    *orderCapture
	dir    *director
	det    *race.Detector
	plan   *snapPlan
	digest *trace.Digest
	base   uint64 // restore boundary; captures only strictly past it
	seen   uint64 // committed events so far

	capture  bool
	next     uint64
	interval uint64

	captures int
	capBytes int64
	evicted  int
}

// newSnapshotter builds an attempt's snapshotter. A resumed attempt
// passes its prefix strategy's digest and boundary: the strategy folds
// the forced prefix, the snapshotter everything past it, so captures
// cover the full execution from step 0 either way.
func newSnapshotter(world *vsys.World, cap *orderCapture, dir *director, det *race.Detector, plan *snapPlan, digest *trace.Digest, base uint64) *snapshotter {
	return &snapshotter{
		world: world, cap: cap, dir: dir, det: det, plan: plan,
		digest: digest, base: base,
		capture: plan.selfKey != "", interval: snapInterval,
		next: base + snapInterval,
	}
}

// OnEvent implements sched.Observer: every committed event past the
// resume boundary feeds the digest.
func (s *snapshotter) OnEvent(ev trace.Event) uint64 {
	s.seen++
	if s.seen > s.base {
		s.digest.Entry(trace.EntryOf(ev))
	}
	return 0
}

// OnQuiescent implements sched.QuiescentObserver: at a pre-pick
// quiescent point with step events committed, capture if the cadence
// is due. Firing before the pick matters: captureDirState must see the
// director after the last commit's OnEvent but before the next pick
// mutates stickiness, the sketch cursor or flip releases — a post-pick
// capture would be one decision ahead of the stream it claims to
// describe, and a child restored from it replays that decision a step
// early.
// Restored attempts only capture strictly past their own boundary —
// the parent already holds every shallower snapshot of this prefix.
func (s *snapshotter) OnQuiescent(step uint64) {
	if !s.capture || step < s.next || step <= s.base {
		return
	}
	det := s.det.Clone()
	// The order slice shares the capture's backing array: the attempt
	// appends only at indices >= step, restores read only below it, and
	// growth reallocates, so the sharing is race-free and copy-free.
	order := s.cap.order[:step:step]
	snap := &search.Snapshot{
		Key:         s.plan.selfKey,
		Step:        step,
		EventDigest: s.digest.Sum(),
		WorldDigest: s.world.Digest(),
		Order:       order,
		State:       &snapState{dir: captureDirState(s.dir), det: det},
		Bytes:       4*int64(len(order)) + det.Footprint() + snapOverhead,
	}
	s.evicted += s.plan.cache.Store(snap)
	s.captures++
	s.capBytes += snap.Bytes
	if s.captures%snapDoubleEvery == 0 {
		s.interval *= 2
	}
	s.next = step + s.interval
}

// snapshotPrefix is the prefix strategy that resumes from snap: the
// parent's captured grant order up to snap.Step. The world needs no
// switch at the boundary — a snapshotted attempt runs in Replay mode
// throughout — so there is no boundary hook.
func snapshotPrefix(snap *search.Snapshot, dir *director, world *vsys.World) *prefixStrategy {
	return newPrefixStrategy(&sched.OrderStrategy{Order: snap.Order},
		dir, world, snap.Step, snap.EventDigest, snap.WorldDigest, nil)
}

// suffixFeed feeds a boundary-state detector clone the committed
// events past the resume boundary only: the clone already holds the
// prefix, so it accumulates exactly the pair set a from-scratch
// detector would have.
type suffixFeed struct {
	det  *race.Detector
	skip uint64 // prefix events still to pass over
}

// OnEvent implements sched.Observer.
func (f *suffixFeed) OnEvent(ev trace.Event) uint64 {
	if f.skip > 0 {
		f.skip--
		return 0
	}
	return f.det.OnEvent(ev)
}
