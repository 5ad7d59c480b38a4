package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Trace event type tags, carried in every event's "event" field so a
// JSONL stream of mixed event kinds stays self-describing.
const (
	EventAttempt = "attempt" // one replay attempt (AttemptEvent)
	EventRecord  = "record"  // one production run (RecordEvent)
	EventSummary = "summary" // end of one replay search (SummaryEvent)
)

// AttemptEvent is the trace record of one replay attempt, emitted in
// canonical attempt order (parallel waves are reported in the same
// order the sequential search would). The schema is frozen in
// OBSERVABILITY.md.
type AttemptEvent struct {
	Event string `json:"event"` // EventAttempt
	// Attempt is the 1-based canonical attempt index.
	Attempt int `json:"attempt"`
	// Mode is "directed" (a flip set from feedback) or "random" (a
	// probabilistic sample of the sketch-constrained space).
	Mode string `json:"mode"`
	// FlipSetID identifies the directed attempt's flip set: "|"-joined
	// flip keys, stable across runs. Empty for random attempts and the
	// empty (baseline) flip set.
	FlipSetID string `json:"flip_set_id,omitempty"`
	// FlipDepth is the number of simultaneous race flips enforced.
	FlipDepth int `json:"flip_depth"`
	// Outcome is "reproduced", "clean", "diverged" or "other".
	Outcome string `json:"outcome"`
	// WallMS is the attempt's wall-clock execution time.
	WallMS float64 `json:"wall_ms"`
	// SketchConsumed is how many recorded sketch entries the attempt
	// honored before finishing (or wedging).
	SketchConsumed int `json:"sketch_consumed"`
	// Divergence is the director's note when the recorded schedule
	// could no longer be honored; empty otherwise.
	Divergence string `json:"divergence,omitempty"`
	// Cancelled marks an attempt the search's context cut short: the
	// execution unwound at a scheduling point, so the outcome describes
	// a truncated run.
	Cancelled bool `json:"cancelled,omitempty"`
}

// RecordEvent is the trace record of one production run (a presrun
// seed-search probe or a single recording).
type RecordEvent struct {
	Event string `json:"event"` // EventRecord
	Seed  int64  `json:"seed"`
	// Outcome is "bug" (target failure manifested), "clean", or
	// "failure" (a non-matching failure).
	Outcome       string `json:"outcome"`
	Steps         uint64 `json:"steps"`
	SketchEntries int    `json:"sketch_entries"`
	LogBytes      int    `json:"log_bytes"`
}

// SummaryEvent closes a replay search's trace: the search-level result
// after the per-attempt events.
type SummaryEvent struct {
	Event       string `json:"event"` // EventSummary
	Reproduced  bool   `json:"reproduced"`
	Attempts    int    `json:"attempts"`
	Flips       int    `json:"flips"`
	Divergences int    `json:"divergences"`
	CleanRuns   int    `json:"clean_runs"`
	RacesSeen   int    `json:"races_seen"`
	// Cancelled marks a search ended by context cancellation or deadline
	// rather than by reproduction or budget exhaustion; the counts above
	// describe the committed prefix.
	Cancelled bool `json:"cancelled,omitempty"`
}

// TraceSink writes structured events as JSON Lines. It is safe for
// concurrent use; a nil *TraceSink discards everything. Write errors
// are sticky and surfaced by Err rather than failing the replay search
// mid-flight.
type TraceSink struct {
	mu  sync.Mutex
	w   io.Writer
	n   int
	err error
}

// NewTraceSink returns a sink writing JSONL events to w.
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{w: w}
}

// Emit marshals ev and writes it as one line. The first error sticks;
// later events are dropped.
func (s *TraceSink) Emit(ev any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Events returns how many events were written successfully.
func (s *TraceSink) Events() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write or marshal error, if any.
func (s *TraceSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
