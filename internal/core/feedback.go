package core

import (
	"sort"

	"repro/internal/appkit"
	"repro/internal/race"
	"repro/internal/trace"
)

// This file is the feedback generation layer: how a failed directed
// attempt's observed races become child flip sets on the search
// frontier (the paper's "compare the failed replay with the
// recording"), and the canonical identities (flip-set key, search
// digest) the dedup set and the prefix snapshots are keyed by.

// replayNode is one point in the directed search tree: a flip set plus
// the race keys its parent attempt observed — feedback prioritizes races
// a node's deviation *created*, which localize the next flip to the
// perturbed neighborhood. With PrefixSnapshots on, parentKey names the
// parent attempt's snapshot-cache prefix and bound upper-bounds the
// snapshot probe at the added flip's first access (snapshot.go).
type replayNode struct {
	fs          flipSet
	parentRaces map[race.PairKey]bool
	parentKey   string
	bound       uint64
}

// appendChildren ranks a failed directed attempt's races and pushes
// the resulting child flip sets onto the frontier. Ranking: races the
// parent's deviation newly created beat pre-existing ones (at most two
// slots go to the latter — they are reachable from other nodes too),
// and within a tier, races closest to the recorded horizon — the step
// where the truncated production sketch ran out, i.e. where the
// production run died — go first; races involving the production run's
// failing thread lead overall, preferring flips that hold *its* access
// while the partner slips in.
//
// Dedup happens here, under the pool's commit lock, against canonical
// flip-set keys — so two orderings of the same flips are one node, and
// no worker ever observes a half-updated dedup set.
func (s *searchState) appendChildren(nd replayNode, out attemptOutcome) int {
	if len(nd.fs.flips) >= maxFlipDepth {
		return 0 // deep chains are noise; let siblings run
	}
	failTID := s.failTID
	var pk string
	if s.snaps != nil {
		pk = snapKey(s.digest, canonicalFlipKey(nd.fs))
	}
	myRaces := make(map[race.PairKey]bool, len(out.races))
	for _, p := range out.races {
		myRaces[p.Key()] = true
	}
	dist := func(p race.Pair) uint64 {
		d := out.horizon - p.SecondSeq
		if p.SecondSeq >= out.horizon {
			d = p.SecondSeq - out.horizon
		}
		if failTID != trace.NoTID {
			switch {
			case p.First.TID == failTID:
				// best tier: no penalty
			case p.Second.TID == failTID:
				d += 1 << 24
			default:
				d += 1 << 32
			}
		}
		return d
	}
	byDist := make([]race.Pair, len(out.races))
	copy(byDist, out.races)
	sort.SliceStable(byDist, func(i, j int) bool { return dist(byDist[i]) < dist(byDist[j]) })

	added := 0
	oldSlots := 2
	for _, wantFresh := range []bool{true, false} {
		for _, p := range byDist {
			if added >= s.opts.branch() {
				break
			}
			fresh := nd.parentRaces == nil || !nd.parentRaces[p.Key()]
			if wantFresh != fresh {
				continue
			}
			if !fresh && oldSlots == 0 {
				continue
			}
			child, ok := nd.fs.with(flipOf(p))
			if !ok {
				continue
			}
			ck := canonicalFlipKey(child)
			if s.seen[ck] {
				continue
			}
			s.seen[ck] = true
			if !fresh {
				oldSlots--
			}
			s.frontier.Push(replayNode{fs: child, parentRaces: myRaces,
				parentKey: pk, bound: p.FirstSeq}, len(child.flips))
			added++
		}
	}
	return added
}

// maxFlipDepth caps feedback chains: the breadth-first search tries all
// single flips, then pairs, and so on; real concurrency bugs virtually
// always fall within a handful of simultaneous reorderings, and each
// extra level multiplies the tree by the branch factor.
const maxFlipDepth = 4

// canonicalFlipKey is the order-independent identity of a flip set —
// the dedup and snapshot key. Distinct sets never collide
// (trace.FlipSetKey is injective; FuzzFlipSetKey pins it).
func canonicalFlipKey(fs flipSet) string {
	if len(fs.flips) == 0 {
		return ""
	}
	ids := make([]trace.FlipID, len(fs.flips))
	for i, f := range fs.flips {
		ids[i] = trace.FlipID{
			Addr:       f.addr,
			HoldTID:    f.holdTID,
			HoldCount:  f.holdCount,
			UntilTID:   f.untilTID,
			UntilCount: f.untilCnt,
		}
	}
	return trace.FlipSetKey(ids)
}

// searchDigest hashes everything that determines what a replay attempt
// of this search executes — program, recording (sketch, inputs, world)
// and the replay knobs that alter enforcement — into the context
// component of the snapshot keys (snapKey). Searches with equal digests
// run equal directed attempts for equal flip sets.
func searchDigest(prog *appkit.Program, rec *Recording, opts ReplayOptions) uint64 {
	d := trace.NewDigest()
	d.String(prog.Name)
	d.String(rec.Scheme.String())
	d.Int(rec.Options.WorldSeed)
	d.Int(int64(rec.Options.Processors))
	d.Int(int64(rec.Options.Scale))
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = rec.Options.MaxSteps
	}
	d.Word(maxSteps)
	d.Int(int64(opts.SketchTail))
	if opts.UseLockset {
		d.Word(1)
	} else {
		d.Word(0)
	}
	entries := rec.Sketch.Entries
	if cp, ok := activeCheckpoint(rec, opts); ok {
		// Checkpointed attempts enforce only the window from the
		// checkpoint, against a re-executed prefix: the key context is
		// the checkpoint's identity plus that window, so searches from
		// different checkpoints (or from the start) never share keys.
		d.Word(cp.Step)
		d.Word(cp.SketchIndex)
		d.Word(cp.EventDigest)
		d.Word(cp.WorldDigest)
		entries = windowFrom(rec, cp)
	}
	for _, e := range entries {
		d.Entry(e)
	}
	for _, in := range rec.Inputs.Records {
		d.Input(in)
	}
	return d.Sum()
}
