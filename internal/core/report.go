package core

import (
	"time"

	"repro/internal/obs"
)

// This file renders the search's progress onto every observability
// surface — the structured trace sink, the metrics registry, and the
// legacy OnAttempt callback — in one place, so the engine (engine.go)
// stays measurement-free.

// reportAttempt publishes one finished attempt, in canonical order, on
// every observability surface: one event, rendered three ways.
func (o ReplayOptions) reportAttempt(idx int, directed bool, fs flipSet, out attemptOutcome) {
	if o.Trace == nil && o.Metrics == nil && o.OnAttempt == nil {
		return
	}
	mode := "random"
	if directed {
		mode = "directed"
	}
	outcome := outcomeName(out)
	if o.Trace != nil {
		o.Trace.Emit(obs.AttemptEvent{
			Event:          obs.EventAttempt,
			Attempt:        idx,
			Mode:           mode,
			FlipSetID:      fs.id(),
			FlipDepth:      len(fs.flips),
			Outcome:        outcome,
			WallMS:         float64(out.wall) / float64(time.Millisecond),
			SketchConsumed: out.consumed,
			Divergence:     out.note,
			Cancelled:      out.cancelled,
		})
	}
	if m := o.Metrics; m != nil {
		m.Counter("pres_replay_attempts_total", "mode", mode, "outcome", outcome).Inc()
		if out.cancelled {
			m.Counter("pres_replay_cancelled_total").Inc()
		}
		m.Histogram("pres_replay_attempt_wall_seconds", obs.DefaultTimeBuckets).Observe(out.wall.Seconds())
	}
	if o.OnAttempt != nil {
		o.OnAttempt(idx, mode, outcome)
	}
}

// reportSearch closes the search's observability: a summary trace
// event and the search-level metrics. Called on every Replay return
// path.
func (o ReplayOptions) reportSearch(r *ReplayResult) {
	o.Trace.Emit(obs.SummaryEvent{
		Event:       obs.EventSummary,
		Reproduced:  r.Reproduced,
		Attempts:    r.Attempts,
		Flips:       r.Flips,
		Divergences: r.Stats.Divergences,
		CleanRuns:   r.Stats.CleanRuns,
		RacesSeen:   r.Stats.RacesSeen,
		Cancelled:   r.Err != nil,
	})
	if m := o.Metrics; m != nil {
		result := "exhausted"
		switch {
		case r.Reproduced:
			result = "reproduced"
		case r.Err != nil:
			result = "cancelled"
		}
		m.Counter("pres_replay_searches_total", "result", result).Inc()
		m.Counter("pres_replay_flips_enqueued_total").Add(uint64(r.Stats.FlipsEnqueued))
		m.Gauge("pres_replay_races_seen").Set(float64(r.Stats.RacesSeen))
	}
}

// waveBuckets are the occupancy histogram bounds: pool sizes worth
// distinguishing.
var waveBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
