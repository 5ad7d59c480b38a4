package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// The boundary check is the only thing standing between a lying prefix
// source and a search that enforces a meaningless window. These tests
// pin the failure mode for both sources: a wrong event digest, a wrong
// world digest or an unrunnable forced thread ends the attempt
// diverged, with a note naming the source. Only a snapshot can force
// an unrunnable thread: the checkpoint source is the production
// strategy, which picks among the runnable candidates.

const (
	checkpointMismatch = "checkpoint boundary mismatch"
	snapshotMismatch   = "snapshot boundary mismatch"
)

// checkpointedRecording records mysql-169 with periodic checkpoints,
// returning the first buggy recording that retained one.
func checkpointedRecording(t *testing.T) *Recording {
	t.Helper()
	prog, _ := apps.ProgramForBug("mysql-169")
	for seed := int64(0); seed < 400; seed++ {
		rec := Record(prog, Options{
			Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 200_000,
			EpochRing: &EpochRingOptions{Steps: 32, CheckpointEvery: 2},
		})
		if f := rec.BugFailure(); f != nil && len(rec.Epochs.Checkpoints) > 0 {
			return rec
		}
	}
	t.Fatal("mysql-169: no buggy checkpointed recording in 400 seeds")
	return nil
}

// withLastCheckpoint returns a copy of rec whose newest checkpoint has
// been changed by mut; rec itself is left alone.
func withLastCheckpoint(rec *Recording, mut func(*trace.Checkpoint)) *Recording {
	r := *rec
	ring := *rec.Epochs
	ring.Checkpoints = append([]trace.Checkpoint(nil), rec.Epochs.Checkpoints...)
	mut(&ring.Checkpoints[len(ring.Checkpoints)-1])
	r.Epochs = &ring
	return &r
}

// requireMismatch checks an attempt ended diverged with the given note.
func requireMismatch(t *testing.T, out attemptOutcome, note string) {
	t.Helper()
	if !out.diverged {
		t.Fatalf("attempt not diverged: clean=%v bug=%v note=%q", out.clean, out.bug, out.note)
	}
	if !strings.HasPrefix(out.note, note) {
		t.Fatalf("note = %q, want prefix %q", out.note, note)
	}
}

func TestCheckpointBoundaryMismatch(t *testing.T) {
	rec := checkpointedRecording(t)
	prog, _ := apps.ProgramForBug("mysql-169")
	opts := ReplayOptions{Feedback: true}
	run := func(r *Recording) attemptOutcome {
		return runAttempt(context.Background(), prog, r, flipSet{}, nil, opts, 0, nil, nil, new(attemptBufs))
	}
	if out := run(rec); strings.Contains(out.note, "boundary mismatch") {
		t.Fatalf("unperturbed checkpoint mismatched: %q", out.note)
	}
	for _, tc := range []struct {
		name string
		mut  func(*trace.Checkpoint)
	}{
		{"event digest", func(cp *trace.Checkpoint) { cp.EventDigest ^= 1 }},
		{"world digest", func(cp *trace.Checkpoint) { cp.WorldDigest ^= 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireMismatch(t, run(withLastCheckpoint(rec, tc.mut)), checkpointMismatch)
		})
	}
}

// TestCheckpointMismatchSearch: a whole search over a recording whose
// newest checkpoint lies ends as an exhausted search — not reproduced,
// no error, every attempt a counted divergence, no fallback to another
// start.
func TestCheckpointMismatchSearch(t *testing.T) {
	rec := checkpointedRecording(t)
	prog, _ := apps.ProgramForBug("mysql-169")
	bad := withLastCheckpoint(rec, func(cp *trace.Checkpoint) { cp.EventDigest ^= 1 })
	res := Replay(prog, bad, ReplayOptions{
		Feedback: true, MaxAttempts: 20, Oracle: MatchBugID("mysql-169"),
	})
	if res.Reproduced || res.Err != nil {
		t.Fatalf("Reproduced=%v Err=%v, want false, nil", res.Reproduced, res.Err)
	}
	if res.Attempts == 0 || res.Stats.Divergences != res.Attempts {
		t.Fatalf("%d of %d attempts counted as divergences", res.Stats.Divergences, res.Attempts)
	}
}

func TestSnapshotBoundaryMismatch(t *testing.T) {
	prog, _ := apps.ProgramForBug("mysql-169")
	rec := recordBuggy(t, prog, sketch.SYNC)
	opts := ReplayOptions{Feedback: true}
	cache := search.NewSnapshotCache(0)

	// A root directed attempt fills the cache with real snapshots.
	root := runAttempt(context.Background(), prog, rec, flipSet{}, nil, opts, 0, nil,
		&snapPlan{cache: cache, selfKey: "parent"}, new(attemptBufs))
	if root.captures == 0 {
		t.Fatal("root attempt captured no snapshots")
	}
	snap := cache.Best("parent", ^uint64(0), nil)

	// A child whose added flip can never engage accepts any snapshot.
	child := flipSet{flips: []flip{flipFor(0, 0, 1<<62, 0, 0)}}
	resume := func(key string, mut func(*search.Snapshot)) attemptOutcome {
		s := *snap
		s.Key = key
		s.Order = append([]trace.TID(nil), snap.Order...)
		mut(&s)
		cache.Store(&s)
		return runAttempt(context.Background(), prog, rec, child, nil, opts, 0, nil,
			&snapPlan{cache: cache, parentKey: key, bound: ^uint64(0) >> 1}, new(attemptBufs))
	}
	if out := resume("good", func(*search.Snapshot) {}); !out.restored || strings.Contains(out.note, "boundary mismatch") {
		t.Fatalf("unperturbed snapshot: restored=%v note=%q", out.restored, out.note)
	}
	for _, tc := range []struct {
		name string
		mut  func(*search.Snapshot)
	}{
		{"event digest", func(s *search.Snapshot) { s.EventDigest ^= 1 }},
		{"world digest", func(s *search.Snapshot) { s.WorldDigest ^= 1 }},
		{"unrunnable forced tid", func(s *search.Snapshot) { s.Order[len(s.Order)/2] = 99 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := resume(tc.name, tc.mut)
			if !out.restored {
				t.Fatal("child did not resume from the snapshot")
			}
			requireMismatch(t, out, snapshotMismatch)
		})
	}
}
