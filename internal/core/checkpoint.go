package core

import (
	"errors"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Where replay starts is decided by the recording alone, with one rule
// for its three shapes (runAttempt in engine.go applies it):
//
//   - a recording that retained a checkpoint starts every attempt at
//     the newest one, re-executing the prefix up to it and enforcing
//     the sketch window after it strictly;
//   - a recording whose head was evicted (an epoch ring that dropped
//     epochs and kept no checkpoint) starts at process start with the
//     retained window as a soft guide, since nothing constrains the
//     unrecorded prefix;
//   - every other recording (classic, or an unbounded ring without
//     checkpoints) enforces its whole sketch strictly from process
//     start.
//
// Every attempt is bounded by the recording's own step bound.
//
// A checkpoint (trace.Checkpoint) names an epoch boundary by its
// committed-event count and carries digests of the event stream and the
// virtual world at that point. An attempt reaches it the way every
// restore works (prefix.go): the prefix strategy forces the production
// strategy — sched.NewRandomMP over the recorded seeds — for exactly
// cp.Step committed events, then checks both digests. The production
// schedule is a pure function of those seeds (RandomMP consumes
// randomness only per granted pick, identically with or without run
// budgets), so the prefix re-executes the recording draw for draw. Past
// the validated boundary the director enforces the retained sketch
// window strictly from its first entry. A checkpoint that fails the
// check ends the attempt diverged; there is no fallback to another
// start, and since every attempt would fail it alike, it ends the
// search (ErrCheckpointMismatch).
//
// The prefix runs with the world in Live mode, not Replay mode: the
// production world seed regenerates every recorded input
// deterministically, and — crucially — keeps blocking calls' recorded
// enabledness. Replay mode enables a blocked call (a queue Recv, say)
// as soon as a logged input exists for it, which offers the scheduler
// candidates the production run never saw and diverges the prefix
// (apache-25520's workers blocking on the listener queue exposed
// this). The checkpoint's boundary hook flips the world into Replay
// mode with the input cursor fast-forwarded past the checkpoint's
// InputIndex, so the constrained tail is served logged inputs exactly
// as a whole-execution replay would serve them. No start reads a
// record before that index, so the recorder keeps input records only
// from the oldest retained checkpoint on and rebases InputIndex onto
// the retained log (epochRecorder.cutInputs). Reproduce follows the
// same rule for a captured order (inputSwitch).
//
// The search space this buys is the point of the epoch design: flip
// points and sketch enforcement are confined to the window after the
// checkpoint, so search depth is bounded by the flip candidates of the
// retained epochs, not the whole execution.

// ErrCheckpointMismatch is ReplayResult.Err for a search that stopped
// after its first attempt because re-executing the recording's prefix
// did not arrive at its checkpoint. Every attempt re-executes that
// prefix under the same options, so none could. The usual cause is a
// schedule seed (Options.ScheduleSeed) other than the production
// run's, which Recording.Validate cannot catch: the recording does not
// store it.
var ErrCheckpointMismatch = errors.New("checkpoint boundary mismatch: the prefix re-execution does not arrive at the recording's checkpoint")

// activeCheckpoint returns the checkpoint replay attempts start from:
// the recording's newest retained one, if it carries any.
func activeCheckpoint(rec *Recording) (trace.Checkpoint, bool) {
	if rec.Epochs == nil {
		return trace.Checkpoint{}, false
	}
	return rec.Epochs.LastCheckpoint()
}

// windowFrom slices the recording's retained sketch entries to those at
// or after the checkpoint. Sketch holds the window starting at global
// entry index Epochs.EvictedEntries; the checkpoint's SketchIndex is a
// global index within that window (eviction drops checkpoints before
// the window, so the offset cannot go negative on a well-formed
// recording — a salvaged one is clamped).
func windowFrom(rec *Recording, cp trace.Checkpoint) []trace.SketchEntry {
	off := int64(cp.SketchIndex) - int64(rec.Epochs.EvictedEntries)
	if off < 0 {
		off = 0
	}
	if off > int64(len(rec.Sketch.Entries)) {
		off = int64(len(rec.Sketch.Entries))
	}
	return rec.Sketch.Entries[off:]
}

// checkpointPrefix is the prefix strategy that re-establishes cp: the
// production strategy up to cp.Step, then the world switched to
// serving the recorded inputs from cp.InputIndex on.
func checkpointPrefix(rec *Recording, cp trace.Checkpoint, dir *director, world *vsys.World) *prefixStrategy {
	ro := rec.Options
	return newPrefixStrategy(sched.NewRandomMP(ro.processors(), ro.preempt(), ro.ScheduleSeed),
		dir, world, cp.Step, cp.EventDigest, cp.WorldDigest,
		func() { world.StartReplayFrom(rec.Inputs, int(cp.InputIndex)) })
}

// inputSwitch runs its strategy unchanged and calls at once, at the
// first pick after boundary committed events: the point where
// prefixStrategy switches the world to serving the recorded inputs.
// Reproduce uses it to serve a captured order's inputs as the attempt
// that captured it was served.
type inputSwitch struct {
	sched.Strategy
	boundary uint64
	steps    uint64 // committed events so far
	at       func()
}

// Pick implements sched.Strategy.
func (s *inputSwitch) Pick(view *sched.PickView) (trace.TID, bool) {
	if s.at != nil && s.steps >= s.boundary {
		s.at()
		s.at = nil
	}
	return s.Strategy.Pick(view)
}

// OnEvent implements sched.Observer, counting committed events.
func (s *inputSwitch) OnEvent(trace.Event) uint64 {
	s.steps++
	return 0
}
