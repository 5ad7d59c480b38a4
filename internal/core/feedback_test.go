package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/exec"
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
