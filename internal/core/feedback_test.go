package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/sketch"
)

// TestFlipSetIDMatchesFlipSetKey: over the searches of the corpus
// bugs' golden recordings (the first three buggy SYNC seeds of each,
// as TestSearchTrajectoryGolden scans them), every candidate child
// appendChildren considers has a flipSetID equal to another's exactly
// when their canonicalFlipKeys are equal — so the dedup set keyed by
// flipSetID holds the same members it did when keyed by the string.
// The root's empty set, which the dedup set starts with, takes part
// too.
func TestFlipSetIDMatchesFlipSetKey(t *testing.T) {
	const perBug, scanBudget = 3, 2000
	considered := 0
	for _, b := range apps.AllBugs() {
		prog, ok := apps.ProgramForBug(b.ID)
		if !ok {
			t.Fatalf("%s: program missing", b.ID)
		}
		oracle := MatchBugID(b.ID)
		found := 0
		for seed := int64(0); found < perBug; seed++ {
			if seed >= scanBudget {
				t.Fatalf("%s manifested %d times in %d seeds, want %d", b.ID, found, scanBudget, perBug)
			}
			rec := Record(prog, trajectoryOptions(seed))
			if f := rec.BugFailure(); f == nil || !oracle(f) {
				continue
			}
			found++
			keyOf := map[flipSetID]string{{}: ""}
			idOf := map[string]flipSetID{"": {}}
			s := newSearchState(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle, Workers: 1})
			// Commits run on a pool goroutine, so a mismatch is
			// reported with Errorf, once per search.
			bad := false
			s.considered = func(parent flipSet, f flip, set flipSetID) {
				considered++
				key := canonicalFlipKey(flipSet{flips: append(append([]flip(nil), parent.flips...), f)})
				if k, ok := keyOf[set]; ok && k != key && !bad {
					bad = true
					t.Errorf("%s seed %d: flip sets %q and %q share flipSetID %v", b.ID, seed, k, key, set)
				}
				if id, ok := idOf[key]; ok && id != set && !bad {
					bad = true
					t.Errorf("%s seed %d: flip set %q has flipSetIDs %v and %v", b.ID, seed, key, id, set)
				}
				keyOf[set], idOf[key] = key, set
			}
			if err := exec.Run(context.Background(), exec.Config{Workers: 1, Budget: s.budget}, s); err != nil {
				t.Fatalf("%s seed %d: %v", b.ID, seed, err)
			}
		}
	}
	if considered == 0 {
		t.Fatal("no search considered a child")
	}
	t.Logf("%d candidate children considered", considered)
}

// TestFoldAllocBound: folding a failed directed attempt — the root
// attempt of mysql-791's golden seed-8 search — into a search whose
// race-id table already holds its races allocates at most the
// children's shared race bitset plus, per child pushed, its flip slice
// and its flip key. Candidates the dedup set rejects allocate nothing.
func TestFoldAllocBound(t *testing.T) {
	const bug = "mysql-791"
	prog, ok := apps.ProgramForBug(bug)
	if !ok {
		t.Fatalf("%s: program missing", bug)
	}
	s := newSearchState(prog, Record(prog, trajectoryOptions(8)),
		ReplayOptions{Feedback: true, Oracle: MatchBugID(bug), Workers: 1})
	j := s.Dispatch(0).Job.(*searchJob)
	s.Run(context.Background(), 0, j)
	if !j.directed || j.out.bug || len(j.out.races) == 0 {
		t.Fatalf("root attempt: directed=%v bug=%v races=%d; want a failed directed attempt with races",
			j.directed, j.out.bug, len(j.out.races))
	}
	pushed := 0
	fold := func() {
		clear(s.seen)
		s.seen[flipSetID{}] = true
		for s.frontier.Len() > 0 {
			s.frontier.Pop(0)
		}
		s.directedLive++
		s.fold(j)
		pushed = s.frontier.Len()
	}
	allocs := testing.AllocsPerRun(20, fold)
	t.Logf("folding the root attempt allocated %.1f objects for %d children", allocs, pushed)
	if pushed != branchFactor {
		t.Fatalf("fold pushed %d children, want %d", pushed, branchFactor)
	}
	if bound := float64(1 + 2*pushed); allocs > bound {
		t.Fatalf("folding the root attempt allocated %.1f objects, want at most %.0f (one bitset, and a flip slice and a key per child)", allocs, bound)
	}

	// Folded until every candidate is in the dedup set, the attempt
	// pushes nothing more, and allocates nothing.
	again := func() {
		s.directedLive++
		s.fold(j)
	}
	for n := -1; n != s.frontier.Len(); {
		n = s.frontier.Len()
		again()
	}
	n := s.frontier.Len()
	if allocs := testing.AllocsPerRun(20, again); s.frontier.Len() != n {
		t.Fatal("a duplicate candidate was pushed")
	} else if allocs != 0 {
		t.Fatalf("folding an attempt whose children are all known allocated %.1f objects, want 0", allocs)
	}
}

// TestRacesOnlyWhereFeedbackReads: only a directed attempt below the
// flip-depth cap runs the race detector, because only its races can
// become children (appendChildren). The no-feedback baseline, a random
// attempt and a depth-cap attempt return no races and never allocate
// the detector, so a search without feedback sees no races at all.
func TestRacesOnlyWhereFeedbackReads(t *testing.T) {
	prog := atomBugProg(4)
	rec := recordBuggy(t, prog, sketch.SYNC)
	never := func(*sched.Failure) bool { return false }

	// Without feedback, attempt 0 is the sticky baseline and the rest
	// sample at random. Every buffer set comes back to the free list.
	s := newSearchState(prog, rec, ReplayOptions{Feedback: false, MaxAttempts: 6, Oracle: never})
	if err := exec.Run(context.Background(), exec.Config{Workers: 1, Budget: s.budget}, s); err != nil {
		t.Fatal(err)
	}
	if s.r.Attempts != 6 || s.r.Stats.RacesSeen != 0 {
		t.Fatalf("no-feedback search: %d attempts saw %d races, want 6 attempts and none", s.r.Attempts, s.r.Stats.RacesSeen)
	}
	for i, b := range s.free {
		if b.det != nil {
			t.Fatalf("no-feedback search: buffer set %d allocated a race detector", i)
		}
	}

	// With feedback, one attempt of each kind. The depth-cap set's
	// flips hold accesses no thread reaches, so it runs the root's
	// schedule and would find the root's races.
	var capped flipSet
	for i := range maxFlipDepth {
		capped = capped.plus(flipFor(uint64(i+1), 0, 1<<62, 1, 1<<62))
	}
	s = newSearchState(prog, rec, ReplayOptions{Feedback: true, Oracle: never})
	for _, c := range []struct {
		name   string
		job    *searchJob
		detect bool
	}{
		{"directed root", &searchJob{idx: 0, directed: true}, true},
		{"random", &searchJob{idx: 1, seed: 1}, false},
		{"depth cap", &searchJob{idx: 2, directed: true, nd: replayNode{fs: capped}}, false},
	} {
		c.job.bufs = new(attemptBufs)
		s.Run(context.Background(), c.job.idx, c.job)
		if races, det := len(c.job.out.races) > 0, c.job.bufs.det != nil; races != c.detect || det != c.detect {
			t.Errorf("%s attempt: %d races, detector allocated %v; want races and a detector: %v",
				c.name, len(c.job.out.races), det, c.detect)
		}
	}
}
