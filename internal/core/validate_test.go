package core

import (
	"errors"
	"testing"

	"repro/internal/sketch"
	"repro/internal/trace"
)

func TestValidateAcceptsRealRecording(t *testing.T) {
	rec := Record(orderBugProg(), Options{Scheme: sketch.SYNC, ScheduleSeed: 1, MaxSteps: 100_000})
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	fresh := func() *Recording {
		return Record(orderBugProg(), Options{Scheme: sketch.SYNC, ScheduleSeed: 1, MaxSteps: 100_000})
	}

	r := fresh()
	r.Sketch = nil
	if r.Validate() == nil {
		t.Error("nil sketch accepted")
	}

	r = fresh()
	r.Sketch.Scheme = "NOPE"
	if r.Validate() == nil {
		t.Error("unknown scheme accepted")
	}

	r = fresh()
	r.Sketch.Scheme = "RW" // header disagrees with Scheme field
	if r.Validate() == nil {
		t.Error("scheme mismatch accepted")
	}

	r = fresh()
	r.Sketch.Entries = append(r.Sketch.Entries, trace.SketchEntry{TID: 0, Kind: trace.Kind(99)})
	if r.Validate() == nil {
		t.Error("invalid kind accepted")
	}

	r = fresh()
	r.Sketch.Entries = append(r.Sketch.Entries, trace.SketchEntry{TID: 0, Kind: trace.KindLoad})
	if r.Validate() == nil {
		t.Error("non-recordable kind accepted in SYNC sketch")
	}

	r = fresh()
	r.Sketch.Entries[0].TID = -3
	if r.Validate() == nil {
		t.Error("negative tid accepted")
	}

	r = fresh()
	r.Sketch.TotalOps = 1
	if r.Validate() == nil {
		t.Error("entry count above total ops accepted")
	}

	r = fresh()
	r.Inputs.Append(trace.InputRecord{TID: -1, Call: 1})
	if r.Validate() == nil {
		t.Error("negative input tid accepted")
	}

	r = fresh()
	r.Inputs.Append(trace.InputRecord{TID: 0, Call: 0})
	if r.Validate() == nil {
		t.Error("zero call code accepted")
	}
}

// TestValidateRejectsCheckpointPastInputs: a checkpoint whose input
// index lies past the input log is rejected. No digest covers the
// index, so the replay would otherwise clamp it or serve no inputs.
func TestValidateRejectsCheckpointPastInputs(t *testing.T) {
	rec := checkpointedRecording(t)
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	n := uint64(rec.Inputs.Len())
	if err := withLastCheckpoint(rec, func(cp *trace.Checkpoint) { cp.InputIndex = n }).Validate(); err != nil {
		t.Fatalf("input index at the log's end rejected: %v", err)
	}
	if withLastCheckpoint(rec, func(cp *trace.Checkpoint) { cp.InputIndex = n + 1 }).Validate() == nil {
		t.Fatal("input index past the input log accepted")
	}
}

// TestValidateRejectsCheckpointsOutOfOrder: replay takes the last
// checkpoint as the newest and the recorder cuts the input log at the
// first as the oldest, so a list out of capture order in any position
// it carries is rejected with ErrCheckpointOrder. Each row swaps one
// field between the first and the last checkpoint, which keeps every
// value inside the ranges Validate checks on its own.
func TestValidateRejectsCheckpointsOutOfOrder(t *testing.T) {
	rec := ringRecording(t)
	n := len(rec.Epochs.Checkpoints)
	if n < 2 {
		t.Fatalf("recording retained %d checkpoints, want at least 2", n)
	}
	for _, tc := range []struct {
		name  string
		field func(*trace.Checkpoint) *uint64
	}{
		{"epoch", func(cp *trace.Checkpoint) *uint64 { return &cp.Epoch }},
		{"step", func(cp *trace.Checkpoint) *uint64 { return &cp.Step }},
		{"sketch_index", func(cp *trace.Checkpoint) *uint64 { return &cp.SketchIndex }},
		{"input_index", func(cp *trace.Checkpoint) *uint64 { return &cp.InputIndex }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := *rec
			ring := *rec.Epochs
			ring.Checkpoints = append([]trace.Checkpoint(nil), rec.Epochs.Checkpoints...)
			r.Epochs = &ring
			first, last := tc.field(&ring.Checkpoints[0]), tc.field(&ring.Checkpoints[n-1])
			if *first >= *last {
				t.Fatalf("first checkpoint at %d, last at %d: swapping them reorders nothing", *first, *last)
			}
			*first, *last = *last, *first
			if err := r.Validate(); !errors.Is(err, ErrCheckpointOrder) {
				t.Fatalf("Validate = %v, want ErrCheckpointOrder", err)
			}
		})
	}
}
