package core

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

// fuzzRecordingOptions are the recording options FuzzReadRecordingReplay
// records its seeds under and decodes every input with (Options are not
// part of the wire format).
var fuzzRecordingOptions = Options{Scheme: sketch.SYNC, Processors: 4, WorldSeed: 1, MaxSteps: 200_000}

// FuzzReadRecordingReplay drives the whole diagnosis pipeline from
// untrusted bytes: whatever ReadRecording decodes and Validate accepts
// is replayed under a small budget. The invariant is that a malformed
// or salvaged recording ends in an error or a search result — never a
// panic. The seeds are real mysql-169 SYNC recordings of buggy runs, in
// both the plain layout and the epoch-ring container with a retained
// checkpoint, so mutations reach the checkpointed replay path too.
func FuzzReadRecordingReplay(f *testing.F) {
	prog, ok := apps.ProgramForBug("mysql-169")
	if !ok {
		f.Fatal("mysql-169: program missing")
	}
	for _, seed := range []int64{3, 8} {
		for _, ring := range []*EpochRingOptions{nil, {Steps: 32, CheckpointEvery: 2}} {
			opts := fuzzRecordingOptions
			opts.ScheduleSeed = seed
			opts.EpochRing = ring
			var buf bytes.Buffer
			if err := Record(prog, opts).Write(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := ReadRecording(bytes.NewReader(b), fuzzRecordingOptions)
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("nil recording with nil error")
		}
		if rec.Validate() != nil {
			return
		}
		res := Replay(prog, rec, ReplayOptions{
			Feedback:       true,
			Oracle:         MatchBugID("mysql-169"),
			MaxAttempts:    4,
			MaxSteps:       20_000,
			FromCheckpoint: true,
		})
		if res.Attempts < 1 || res.Attempts > 4 {
			t.Fatalf("attempts = %d, want 1..4", res.Attempts)
		}
		if res.Reproduced && res.Order == nil {
			t.Fatal("reproduced without a captured order")
		}
	})
}
