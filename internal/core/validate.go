package core

import (
	"errors"
	"fmt"

	"repro/internal/sketch"
)

// ErrCheckpointOrder is wrapped by Validate's error for a recording
// whose checkpoints are not in capture order. Replay starts at the last
// checkpoint as the newest, and the recorder cuts the input log at the
// first as the oldest, so the list must be non-decreasing in every
// position it carries.
var ErrCheckpointOrder = errors.New("checkpoints out of capture order")

// Validate checks a recording's internal consistency beyond what the
// codec enforces — the pre-flight a diagnosis tool runs on an untrusted
// or salvaged file before spending replay budget on it.
func (r *Recording) Validate() error {
	if r.Sketch == nil || r.Inputs == nil {
		return fmt.Errorf("core: recording missing sketch or input log")
	}
	scheme, err := sketch.Parse(r.Sketch.Scheme)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if scheme != r.Scheme {
		return fmt.Errorf("core: recording scheme %v does not match log header %q", r.Scheme, r.Sketch.Scheme)
	}
	if uint64(r.Sketch.Len()) > r.Sketch.TotalOps && r.Sketch.TotalOps != 0 {
		return fmt.Errorf("core: sketch has %d entries but only %d total ops", r.Sketch.Len(), r.Sketch.TotalOps)
	}
	for i, e := range r.Sketch.Entries {
		if !e.Kind.Valid() {
			return fmt.Errorf("core: sketch entry %d has invalid kind %d", i, e.Kind)
		}
		if !scheme.Records(e.Kind) {
			return fmt.Errorf("core: sketch entry %d (%v) is not recordable under %v", i, e.Kind, scheme)
		}
		if e.TID < 0 {
			return fmt.Errorf("core: sketch entry %d has negative thread id", i)
		}
	}
	for i, rec := range r.Inputs.Records {
		if rec.TID < 0 {
			return fmt.Errorf("core: input record %d has negative thread id", i)
		}
		if rec.Call == 0 {
			return fmt.Errorf("core: input record %d has zero call code", i)
		}
	}
	if ring := r.Epochs; ring != nil {
		if ring.WindowLen() != r.Sketch.Len() {
			return fmt.Errorf("core: epoch window holds %d entries but sketch view has %d", ring.WindowLen(), r.Sketch.Len())
		}
		want := ring.Evicted
		entry := ring.EvictedEntries
		for i, e := range ring.Epochs {
			if e.ID != want {
				return fmt.Errorf("core: epoch %d has id %d, want %d", i, e.ID, want)
			}
			if e.StartEntry != entry {
				return fmt.Errorf("core: epoch %d starts at entry %d, want %d", e.ID, e.StartEntry, entry)
			}
			want++
			entry += uint64(len(e.Entries))
		}
		for i, cp := range ring.Checkpoints {
			if i > 0 {
				prev := ring.Checkpoints[i-1]
				if cp.Epoch < prev.Epoch || cp.Step < prev.Step || cp.SketchIndex < prev.SketchIndex || cp.InputIndex < prev.InputIndex {
					return fmt.Errorf("core: checkpoint %d (epoch %d, step %d, sketch %d, input %d) lies before checkpoint %d (epoch %d, step %d, sketch %d, input %d): %w",
						i, cp.Epoch, cp.Step, cp.SketchIndex, cp.InputIndex,
						i-1, prev.Epoch, prev.Step, prev.SketchIndex, prev.InputIndex, ErrCheckpointOrder)
				}
			}
			if cp.Epoch < ring.Evicted || cp.Epoch > ring.Evicted+uint64(len(ring.Epochs)) {
				return fmt.Errorf("core: checkpoint %d at epoch %d is outside the retained window [%d, %d]",
					i, cp.Epoch, ring.Evicted, ring.Evicted+uint64(len(ring.Epochs)))
			}
			if cp.SketchIndex < ring.EvictedEntries || cp.SketchIndex > entry {
				return fmt.Errorf("core: checkpoint %d sketch index %d is outside the retained entries [%d, %d]",
					i, cp.SketchIndex, ring.EvictedEntries, entry)
			}
			if cp.InputIndex > uint64(r.Inputs.Len()) {
				return fmt.Errorf("core: checkpoint %d input index %d is past the %d logged inputs",
					i, cp.InputIndex, r.Inputs.Len())
			}
		}
	}
	return nil
}
