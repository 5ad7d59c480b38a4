package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/exec"
	"repro/internal/sketch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata")

// TestSearchTrajectoryGolden pins the sequential search, attempt for
// attempt, over the corpus: for each bug, the first three buggy SYNC
// recordings (production seeds scanned from 0, as the benchmark's
// diagnose workloads do) are searched at Workers: 1, once as recorded
// in memory and once serialized and read back, and the serialized one
// again at Workers: 2 and 4. One line per recording records what the
// search did and a hash of the order it captured, and every search must
// produce that same line: neither the provenance of a recording nor
// the pool width changes its search. Any change to race or flip
// identity, flip ordering or candidate filtering that moves a single
// attempt moves a line here; a performance change must leave the file
// alone.
//
// Regenerate deliberately with:
// go test ./internal/core -run TestSearchTrajectoryGolden -update
func TestSearchTrajectoryGolden(t *testing.T) {
	const perBug, scanBudget = 3, 2000
	var got bytes.Buffer
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
			opts := trajectoryOptions(seed)
			rec := Record(prog, opts)
			if f := rec.BugFailure(); f == nil || !oracle(f) {
				continue
			}
			found++
			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				t.Fatalf("%s seed %d: write: %v", b.ID, seed, err)
			}
			rr, err := ReadRecording(&buf, opts)
			if err != nil {
				t.Fatalf("%s seed %d: read: %v", b.ID, seed, err)
			}
			line := func(rec *Recording, workers int) string {
				res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle, Workers: workers})
				return trajectoryLine(b.ID, seed, res)
			}
			serialized, inMemory := line(rr, 1), line(rec, 1)
			if inMemory != serialized {
				t.Errorf("%s seed %d: the in-memory recording searched differently from its serialized form:\n in-memory  %s serialized %s",
					b.ID, seed, inMemory, serialized)
			}
			for _, w := range []int{2, 4} {
				if wide := line(rr, w); wide != serialized {
					t.Errorf("%s seed %d: Workers: %d searched differently from Workers: 1:\n workers=%d %s workers=1 %s",
						b.ID, seed, w, w, wide, serialized)
				}
			}
			got.WriteString(serialized)
		}
	}

	checkGolden(t, trajectoryGoldenPath, got.Bytes())
}

// checkGolden compares got with the golden file at path, line by line,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl := strings.Split(string(got), "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
		t.Fatalf("output drifted from %s", path)
	}
}

const trajectoryGoldenPath = "testdata/search_trajectory.golden"

// trajectoryOptions records the golden's production run for seed.
func trajectoryOptions(seed int64) Options {
	return Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 300_000}
}

// trajectoryLine is the golden's one-line summary of a search: what it
// did and a hash of the order it captured.
func trajectoryLine(bug string, seed int64, res *ReplayResult) string {
	h := fnv.New64a()
	if res.Order != nil {
		for _, tid := range res.Order.Order {
			fmt.Fprintf(h, "%d,", tid)
		}
	}
	return fmt.Sprintf("%s seed=%d reproduced=%v attempts=%d flips=%d steps=%d races=%d enqueued=%d order=%016x\n",
		bug, seed, res.Reproduced, res.Attempts, res.Flips, res.Stats.Steps,
		res.Stats.RacesSeen, res.Stats.FlipsEnqueued, h.Sum64())
}

// holdRunner runs a search at Workers: 2 under a forced schedule: it
// holds attempt index 1, a random sample, in Run while the other worker
// runs ahead. The search's root is attempt 0; its children (up to
// branchFactor) pop at the even indices 2, 4, ..., 16, so index
// holdUntil is the first directed slot that needs the children of an
// attempt stuck behind index 1's commit. The hold ends when Dispatch is
// offered that index, when Dispatch returns Wait (nothing more can
// commit before index 1 does), or when a Commit stops the pool.
type holdRunner struct {
	*searchState
	t       *testing.T
	release chan struct{}
	once    sync.Once
}

const holdUntil = 2 * (branchFactor + 1)

func (h *holdRunner) open() { h.once.Do(func() { close(h.release) }) }

func (h *holdRunner) Dispatch(idx int) exec.Decision {
	d := h.searchState.Dispatch(idx)
	if idx >= holdUntil || d.Wait {
		h.open()
	}
	return d
}

func (h *holdRunner) Run(ctx context.Context, idx int, job any) {
	if idx == 1 {
		select {
		case <-h.release:
		case <-time.After(time.Minute):
			h.t.Error("attempt 1 was never released")
		}
	}
	h.searchState.Run(ctx, idx, job)
}

func (h *holdRunner) Commit(idx int, job any) bool {
	more := h.searchState.Commit(idx, job)
	if !more {
		h.open()
	}
	return more
}

// TestSearchWidthSurvivesHeldAttempt searches six golden recordings at
// Workers: 2 under holdRunner's schedule and requires each to produce
// its golden line. A directed attempt counts as live until it commits.
// Counted only until it completes, the other worker would drain the
// root's children while index 1 is held, find the frontier empty at
// index holdUntil and sample at random where the sequential search pops
// a grandchild: all six recordings then take two more attempts.
func TestSearchWidthSurvivesHeldAttempt(t *testing.T) {
	golden, err := os.ReadFile(trajectoryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		bug  string
		seed int64
	}{
		{"mysql-791", 3}, {"mysql-791", 8}, {"mysql-791", 13},
		{"barnes-order", 250}, {"barnes-order", 498}, {"barnes-order", 511},
	} {
		var want string
		prefix := fmt.Sprintf("%s seed=%d ", c.bug, c.seed)
		for _, l := range strings.SplitAfter(string(golden), "\n") {
			if strings.HasPrefix(l, prefix) {
				want = l
			}
		}
		if want == "" {
			t.Fatalf("%s seed %d: no golden line", c.bug, c.seed)
		}
		prog, ok := apps.ProgramForBug(c.bug)
		if !ok {
			t.Fatalf("%s: program missing", c.bug)
		}
		rec := Record(prog, trajectoryOptions(c.seed))
		s := newSearchState(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID(c.bug), Workers: 2})
		h := &holdRunner{searchState: s, t: t, release: make(chan struct{})}
		if err := exec.Run(context.Background(), exec.Config{Workers: 2, Budget: s.budget}, h); err != nil {
			t.Fatalf("%s seed %d: %v", c.bug, c.seed, err)
		}
		if got := trajectoryLine(c.bug, c.seed, s.r); got != want {
			t.Errorf("held Workers: 2 search drifted from Workers: 1:\n got  %s want %s", got, want)
		}
	}
}
