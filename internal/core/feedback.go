package core

import (
	"cmp"
	"slices"

	"repro/internal/appkit"
	"repro/internal/trace"
)

// This file is the feedback generation layer: how a failed directed
// attempt's observed races become child flip sets on the search
// frontier (the paper's "compare the failed replay with the
// recording"), and the identities the search keys its state by. fold
// gives each distinct race a dense id (searchState.raceIDs) the first
// time it sees it; a node's parent races are a bitset over those ids,
// and the dedup set keys on flipSetID, the sorted ids of a set's flips.
// The text identities (canonicalFlipKey, the search digest) key only
// the prefix snapshots.

// replayNode is one point in the directed search tree: a flip set, its
// dedup identity, and the races its parent attempt observed — feedback
// prioritizes races a node's deviation *created*, which localize the
// next flip to the perturbed neighborhood. With PrefixSnapshots on,
// parentKey names the parent attempt's snapshot-cache prefix and bound
// upper-bounds the snapshot probe at the added flip's first access
// (snapshot.go).
type replayNode struct {
	fs          flipSet
	set         flipSetID
	parentRaces raceBits
	parentKey   string
	bound       uint64
}

// raceBits is a set of race ids, one bit per id. A nil set is empty,
// and ids past its end are absent.
type raceBits []uint64

func (b raceBits) has(id int32) bool {
	w := int(id >> 6)
	return w < len(b) && b[w]&(1<<(id&63)) != 0
}

// flipSetID is a flip set's dedup identity: its flips' race ids in
// ascending order, n of them. A flip carries exactly the five fields of
// its race's PairKey, so equal ids mean equal flips, and sorting makes
// the identity the set's, not its discovery order's: two flip sets have
// equal flipSetIDs exactly when their canonicalFlipKeys are equal
// (TestFlipSetIDMatchesFlipSetKey pins this). Unused slots stay zero,
// and id 0 is a race, so n is part of the identity.
type flipSetID struct {
	n   int32
	ids [maxFlipDepth]int32
}

// with returns the identity of the set extended by race id, which the
// set must not hold and which must fit (n < maxFlipDepth).
func (s flipSetID) with(id int32) flipSetID {
	i := s.n
	for i > 0 && s.ids[i-1] > id {
		s.ids[i] = s.ids[i-1]
		i--
	}
	s.ids[i] = id
	s.n++
	return s
}

// ranked is one race of an attempt in appendChildren's ranking: its
// distance to the recorded horizon and its index in the attempt's
// races.
type ranked struct {
	dist uint64
	i    int32
}

// appendChildren ranks a failed directed attempt's races and pushes
// the resulting child flip sets onto the frontier; ids holds the
// races' ids, index for index. Ranking: races the parent's deviation
// newly created beat pre-existing ones (at most two slots go to the
// latter — they are reachable from other nodes too), and within each
// group, races closest to the recorded horizon — the step where the
// truncated production sketch ran out, i.e. where the production run
// died — go first, ties in the attempt's race order. The ranking reads
// only the attempt's own races and the persisted sketch, so an
// in-memory recording and one read back from its serialized form run
// the same search.
//
// Dedup happens here, under the pool's commit lock, against flipSetIDs
// — so two orderings of the same flips are one node, and no worker
// ever observes a half-updated dedup set. A candidate is checked
// before its flips are copied or its key rendered, so a rejected one
// allocates nothing; the children share one bitset of the attempt's
// races, built at the first push.
func (s *searchState) appendChildren(nd replayNode, out attemptOutcome, ids []int32) int {
	if len(nd.fs.flips) >= maxFlipDepth {
		return 0 // deep chains are noise; let siblings run
	}
	var pk string
	if s.snaps != nil {
		pk = snapKey(s.digest, canonicalFlipKey(nd.fs))
	}
	rank := s.rank[:0]
	for i, p := range out.races {
		d := out.horizon - p.SecondSeq
		if p.SecondSeq >= out.horizon {
			d = p.SecondSeq - out.horizon
		}
		rank = append(rank, ranked{dist: d, i: int32(i)})
	}
	slices.SortStableFunc(rank, func(a, b ranked) int { return cmp.Compare(a.dist, b.dist) })
	s.rank = rank

	var myRaces raceBits
	added := 0
	oldSlots := 2
	for _, wantFresh := range []bool{true, false} {
		for _, r := range rank {
			if added >= branchFactor {
				break
			}
			id := ids[r.i]
			fresh := !nd.parentRaces.has(id)
			if wantFresh != fresh {
				continue
			}
			if !fresh && oldSlots == 0 {
				continue
			}
			f := flipOf(out.races[r.i])
			if nd.fs.constrains(f) {
				continue
			}
			set := nd.set.with(id)
			if s.considered != nil {
				s.considered(nd.fs, f, set)
			}
			if s.seen[set] {
				continue
			}
			s.seen[set] = true
			if !fresh {
				oldSlots--
			}
			if myRaces == nil {
				myRaces = make(raceBits, (len(s.raceIDs)+63)/64)
				for _, id := range ids {
					myRaces[id>>6] |= 1 << (id & 63)
				}
			}
			s.frontier.Push(replayNode{fs: nd.fs.plus(f), set: set, parentRaces: myRaces,
				parentKey: pk, bound: f.pair.FirstSeq}, int(set.n))
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

// canonicalFlipKey is the order-independent text identity of a flip
// set, which the prefix snapshots are keyed by (snapKey). Distinct sets
// never collide (trace.FlipSetKey is injective; FuzzFlipSetKey pins
// it).
func canonicalFlipKey(fs flipSet) string {
	if len(fs.flips) == 0 {
		return ""
	}
	ids := make([]trace.FlipID, len(fs.flips))
	for i, f := range fs.flips {
		ids[i] = trace.FlipID{
			Addr:       f.pair.First.Addr,
			HoldTID:    f.pair.First.TID,
			HoldCount:  f.pair.First.TCount,
			UntilTID:   f.pair.Second.TID,
			UntilCount: f.pair.Second.TCount,
		}
	}
	return trace.FlipSetKey(ids)
}

// searchDigest hashes everything that determines what a replay attempt
// of this search executes — program and recording (sketch, inputs,
// world, step bound) — into the context component of the snapshot keys
// (snapKey). Searches with equal digests run equal directed attempts
// for equal flip sets. Only searches without a recording checkpoint
// take snapshots, so the whole retained sketch is the enforced one.
func searchDigest(prog *appkit.Program, rec *Recording) uint64 {
	d := trace.NewDigest()
	d.String(prog.Name)
	d.String(rec.Scheme.String())
	d.Int(rec.Options.WorldSeed)
	d.Int(int64(rec.Options.Processors))
	d.Int(int64(rec.Options.Scale))
	d.Word(rec.Options.MaxSteps)
	for _, e := range rec.Sketch.Entries {
		d.Entry(e)
	}
	for _, in := range rec.Inputs.Records {
		d.Input(in)
	}
	return d.Sum()
}
