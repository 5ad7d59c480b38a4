package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

// startShapes are the recording shapes the replay start rule
// distinguishes (checkpoint.go), each with the structure its recording
// must show for the row to test what it names.
var startShapes = []struct {
	name       string
	ring       *EpochRingOptions
	checkpoint bool // the newest retained checkpoint anchors every attempt
	headless   bool // the head of the sketch was evicted
}{
	{"classic", nil, false, false},
	{"unbounded_ring", &EpochRingOptions{Steps: 32}, false, false},
	{"unbounded_ring_checkpoints", &EpochRingOptions{Steps: 32, CheckpointEvery: 2}, true, false},
	{"bounded_ring_checkpoints", &EpochRingOptions{Steps: 32, Size: 2, CheckpointEvery: 1}, true, true},
	{"bounded_ring_headless", &EpochRingOptions{Steps: 32, Size: 2}, false, true},
}

// withRing returns rec's recording options with the given epoch ring.
func withRing(rec *Recording, ring *EpochRingOptions) Options {
	opts := rec.Options
	opts.EpochRing = ring
	return opts
}

// TestReplayStartFollowsRecording: the recording alone decides where
// replay starts. For each recording shape of the same buggy production
// run, the default search reproduces the bug, its captured order
// re-manifests it, and the recording read back from its serialized form
// searches exactly like the in-memory one. The checkpointed shapes carry
// fewer input records than the classic recording, so the search and
// Reproduce run on a cut input log.
func TestReplayStartFollowsRecording(t *testing.T) {
	bugs := []string{"mysql-169", "fft-barrier", "pbzip2-order", "openldap-deadlock", "apache-25520"}
	classic := map[string]*Recording{}
	for _, id := range bugs {
		classic[id] = startShapeSeed(t, id)
	}
	for _, sh := range startShapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, id := range bugs {
				prog, _ := apps.ProgramForBug(id)
				oracle := MatchBugID(id)
				rec := classic[id]
				if sh.ring != nil {
					rec = Record(prog, withRing(rec, sh.ring))
				}
				// A retained checkpoint cuts the input log at the oldest
				// one; every other shape keeps the whole log. fft-barrier
				// logs no input at all, so there is nothing to cut.
				n, whole := rec.Inputs.Len(), classic[id].Inputs.Len()
				ok := n == whole
				if sh.checkpoint && whole > 0 {
					ok = n < whole
				}
				if !ok {
					t.Fatalf("%s: %d input records, classic recording %d", id, n, whole)
				}

				ropts := ReplayOptions{Feedback: true, MaxAttempts: 200, Oracle: oracle}
				res := Replay(prog, rec, ropts)
				if !res.Reproduced {
					t.Fatalf("%s: not reproduced in %d attempts (%+v)", id, res.Attempts, res.Stats)
				}
				if out := Reproduce(prog, rec, res.Order); out.Failure == nil || !oracle(out.Failure) {
					t.Fatalf("%s: captured order lost the bug: %v", id, out.Failure)
				}

				var buf bytes.Buffer
				if err := rec.Write(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := ReadRecording(&buf, rec.Options)
				if err != nil {
					t.Fatal(err)
				}
				if err := back.Validate(); err != nil {
					t.Fatalf("%s: decoded recording invalid: %v", id, err)
				}
				if got := Replay(prog, back, ropts); !reflect.DeepEqual(got, res) {
					t.Fatalf("%s: decoded recording searched differently: %+v vs %+v", id, got, res)
				}
				t.Logf("%s: reproduced in %d attempts, %d of %d input records", id, res.Attempts, n, whole)
			}
		})
	}
}

// startShapeSeed returns the classic SYNC recording of the first
// production seed that manifests bug id and, recorded in every start
// shape, yields that shape's structure.
func startShapeSeed(t *testing.T, id string) *Recording {
	t.Helper()
	prog, _ := apps.ProgramForBug(id)
	oracle := MatchBugID(id)
seeds:
	for seed := int64(0); seed < 400; seed++ {
		rec := Record(prog, Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 200_000})
		if f := rec.BugFailure(); f == nil || !oracle(f) {
			continue
		}
		for _, sh := range startShapes[1:] {
			ring := Record(prog, withRing(rec, sh.ring)).Epochs
			if _, cp := ring.LastCheckpoint(); cp != sh.checkpoint || (ring.EvictedEntries > 0) != sh.headless {
				continue seeds
			}
		}
		return rec
	}
	t.Fatalf("%s: no seed in 400 manifests the bug in every recording shape", id)
	return nil
}

// TestReplayStartSparseCheckpoints: a bounded ring whose checkpoint
// cadence outruns its capacity (CheckpointEvery > Size) can end its run
// holding no checkpoint at all — between captures, or after the trailing
// seal evicts the last one. Such a recording replays from process start
// and reads its input log from index 0, so the recorder must keep that
// log whole. For each bug's production run, the sparse rings keep the
// classic recording's inputs, the search reproduces the bug and the
// captured order re-manifests it; at least one recording per geometry
// must end with no checkpoint for the row to test what it names.
func TestReplayStartSparseCheckpoints(t *testing.T) {
	bugs := []string{"mysql-169", "pbzip2-order", "openldap-deadlock", "apache-25520"}
	rings := []*EpochRingOptions{
		{Steps: 32, Size: 2, CheckpointEvery: 3},
		{Steps: 32, Size: 2, CheckpointEvery: 4},
	}
	classic := map[string]*Recording{}
	for _, id := range bugs {
		classic[id] = startShapeSeed(t, id)
	}
	for _, ring := range rings {
		bare := 0
		for _, id := range bugs {
			prog, _ := apps.ProgramForBug(id)
			oracle := MatchBugID(id)
			rec := Record(prog, withRing(classic[id], ring))
			if !reflect.DeepEqual(rec.Inputs.Records, classic[id].Inputs.Records) {
				t.Fatalf("%+v %s: %d input records, classic recording %d", *ring, id, rec.Inputs.Len(), classic[id].Inputs.Len())
			}
			if _, ok := rec.Epochs.LastCheckpoint(); !ok && rec.Epochs.EvictedEntries > 0 {
				bare++
			}
			res := Replay(prog, rec, ReplayOptions{Feedback: true, MaxAttempts: 200, Oracle: oracle})
			if !res.Reproduced {
				t.Fatalf("%+v %s: not reproduced in %d attempts (%+v)", *ring, id, res.Attempts, res.Stats)
			}
			if out := Reproduce(prog, rec, res.Order); out.Failure == nil || !oracle(out.Failure) {
				t.Fatalf("%+v %s: captured order lost the bug: %v", *ring, id, out.Failure)
			}
			t.Logf("%+v %s: reproduced in %d attempts, %d checkpoints retained", *ring, id, res.Attempts, len(rec.Epochs.Checkpoints))
		}
		if bare == 0 {
			t.Fatalf("%+v: every recording kept a checkpoint; the row tests no checkpoint-free ending", *ring)
		}
	}
}
