package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

var updateTrajectory = flag.Bool("update", false, "rewrite testdata/search_trajectory.golden")

// TestSearchTrajectoryGolden pins the sequential search, attempt for
// attempt, over the corpus: for each bug, the first three buggy SYNC
// recordings (production seeds scanned from 0, as the benchmark's
// diagnose workloads do) are searched at Workers: 1, once as recorded
// in memory and once serialized and read back. One line per recording
// records what the search did and a hash of the order it captured, and
// both searches must produce that same line: the provenance of a
// recording does not change its search. Any change to race or flip
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
			opts := Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 300_000}
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
			line := func(rec *Recording) string {
				res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle, Workers: 1})
				h := fnv.New64a()
				if res.Order != nil {
					for _, tid := range res.Order.Order {
						fmt.Fprintf(h, "%d,", tid)
					}
				}
				return fmt.Sprintf("%s seed=%d reproduced=%v attempts=%d flips=%d steps=%d races=%d enqueued=%d order=%016x\n",
					b.ID, seed, res.Reproduced, res.Attempts, res.Flips, res.Stats.Steps,
					res.Stats.RacesSeen, res.Stats.FlipsEnqueued, h.Sum64())
			}
			serialized, inMemory := line(rr), line(rec)
			if inMemory != serialized {
				t.Errorf("%s seed %d: the in-memory recording searched differently from its serialized form:\n in-memory  %s serialized %s",
					b.ID, seed, inMemory, serialized)
			}
			got.WriteString(serialized)
		}
	}

	path := filepath.Join("testdata", "search_trajectory.golden")
	if *updateTrajectory {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl := strings.Split(got.String(), "\n")
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
		t.Fatal("search trajectory drifted from testdata/search_trajectory.golden")
	}
}
