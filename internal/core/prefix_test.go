package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
		return runAttempt(context.Background(), prog, r, flipSet{}, nil, true, opts, 0, nil, nil, new(attemptBufs))
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
// newest checkpoint lies stops after its first attempt — not
// reproduced, that attempt a counted divergence, Err
// ErrCheckpointMismatch — with no fallback to another start: every
// attempt would re-execute the same prefix and miss the same boundary.
func TestCheckpointMismatchSearch(t *testing.T) {
	rec := checkpointedRecording(t)
	prog, _ := apps.ProgramForBug("mysql-169")
	bad := withLastCheckpoint(rec, func(cp *trace.Checkpoint) { cp.EventDigest ^= 1 })
	res := Replay(prog, bad, ReplayOptions{
		Feedback: true, MaxAttempts: 20, Oracle: MatchBugID("mysql-169"),
	})
	if res.Reproduced || !errors.Is(res.Err, ErrCheckpointMismatch) {
		t.Fatalf("Reproduced=%v Err=%v, want false, ErrCheckpointMismatch", res.Reproduced, res.Err)
	}
	if res.Attempts != 1 || res.Stats.Divergences != 1 {
		t.Fatalf("%d of %d attempts counted as divergences, want 1 of 1", res.Stats.Divergences, res.Attempts)
	}
}

func TestSnapshotBoundaryMismatch(t *testing.T) {
	prog, _ := apps.ProgramForBug("mysql-169")
	rec := recordBuggy(t, prog, sketch.SYNC)
	opts := ReplayOptions{Feedback: true}
	cache := search.NewSnapshotCache(0)

	// A root directed attempt fills the cache with real snapshots.
	root := runAttempt(context.Background(), prog, rec, flipSet{}, nil, true, opts, 0, nil,
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
		return runAttempt(context.Background(), prog, rec, child, nil, true, opts, 0, nil,
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

// ringRecording records presrun's mysql-169 ring (-epoch-steps 32
// -epoch-ring 2 -checkpoint-every 1), returning the first buggy
// recording that retained a checkpoint.
func ringRecording(t *testing.T) *Recording {
	t.Helper()
	prog, _ := apps.ProgramForBug("mysql-169")
	for seed := int64(0); seed < 400; seed++ {
		r := Record(prog, Options{
			Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1,
			EpochRing: &EpochRingOptions{Steps: 32, Size: 2, CheckpointEvery: 1},
		})
		if f := r.BugFailure(); f != nil && f.BugID == "mysql-169" && len(r.Epochs.Checkpoints) > 0 {
			return r
		}
	}
	t.Fatal("mysql-169: no buggy checkpointed ring recording in 400 seeds")
	return nil
}

// TestCheckpointDigestGolden pins the event and world digest of every
// checkpoint in the ring recording ringRecording returns. Record and
// replay compute both digests with the same trace.Digest, so a
// round trip passes even if its values move; this file does not, and
// the digests are part of the recording format (a recording written
// before such a move would mismatch at every checkpoint).
//
// Regenerate deliberately with:
// go test ./internal/core -run TestCheckpointDigestGolden -update
func TestCheckpointDigestGolden(t *testing.T) {
	rec := ringRecording(t)
	var got bytes.Buffer
	fmt.Fprintf(&got, "mysql-169 seed=%d checkpoints=%d\n", rec.Options.ScheduleSeed, len(rec.Epochs.Checkpoints))
	for _, cp := range rec.Epochs.Checkpoints {
		fmt.Fprintf(&got, "epoch=%d step=%d sketch=%d input=%d event=%016x world=%016x\n",
			cp.Epoch, cp.Step, cp.SketchIndex, cp.InputIndex, cp.EventDigest, cp.WorldDigest)
	}
	checkGolden(t, checkpointDigestGoldenPath, got.Bytes())
}

const checkpointDigestGoldenPath = "testdata/checkpoint_digest.golden"

// TestCheckpointMismatchStopsSearch: a checkpointed recording replayed
// under a schedule seed other than the production run's re-executes the
// same wrong prefix in every attempt, so the search stops after its
// first attempt with ErrCheckpointMismatch instead of spending its
// budget, at every Workers count, and Advise names the seed. The
// recording is ringRecording's, read back with the wrong seed as
// presreplay would.
func TestCheckpointMismatchStopsSearch(t *testing.T) {
	prog, _ := apps.ProgramForBug("mysql-169")
	rec := ringRecording(t)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := rec.Options
	wrong.ScheduleSeed++
	back, err := ReadRecording(&buf, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("recording under the wrong seed failed validation: %v", err)
	}
	for _, workers := range []int{1, 2} {
		res := Replay(prog, back, ReplayOptions{Feedback: true, Oracle: MatchBugID("mysql-169"), Workers: workers})
		if res.Reproduced || !errors.Is(res.Err, ErrCheckpointMismatch) {
			t.Fatalf("workers %d: reproduced=%v err=%v, want ErrCheckpointMismatch", workers, res.Reproduced, res.Err)
		}
		if res.Attempts != 1 || res.Stats.Divergences != 1 {
			t.Fatalf("workers %d: %d attempts (%+v), want the search stopped after 1", workers, res.Attempts, res.Stats)
		}
		want := fmt.Sprintf("schedule seed %d", wrong.ScheduleSeed)
		if adv := Advise(back, res); !strings.Contains(adv, want) || !strings.Contains(adv, "-seed") {
			t.Fatalf("workers %d: advice %q does not name the seed", workers, adv)
		}
	}
}
