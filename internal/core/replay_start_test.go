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
// searches exactly like the in-memory one.
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
				t.Logf("%s: reproduced in %d attempts", id, res.Attempts)
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
