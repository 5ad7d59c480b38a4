package core

import (
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Always-on recording: instead of one whole-execution sketch log, the
// recorder seals the global order into fixed-length epochs kept in a
// bounded ring, and periodically captures a checkpoint at an epoch
// boundary. A long-running production service then carries a bounded
// recording (the last Size epochs) whose replay search starts from the
// newest checkpoint rather than from process start.
//
// A checkpoint does not serialize thread state — application threads
// live inside Program.Run and cannot be transplanted. It captures the
// boundary's *identity* (committed-event count, sketch/input positions,
// an event-stream digest) plus the virtual world's snapshot and digest.
// Replay re-establishes the boundary by deterministically re-executing
// the prefix under the production strategy (cheap: no enforcement, no
// detection bookkeeping in the way of the grant fast path is required
// for correctness — the production schedule is a pure function of the
// recorded seeds) and validating both digests at the switch point; see
// prefixStrategy in prefix.go. Replay never reads the world snapshot
// back, only its digest.

// EpochRingOptions configures epoch-segmented recording.
type EpochRingOptions struct {
	// Steps is the epoch length in committed events; <= 0 means
	// DefaultEpochSteps. Epochs seal at the first control transfer at or
	// after the threshold, so every epoch boundary is a scheduler
	// quiescent point (no thread mid-effect) — the precondition for the
	// world snapshot a checkpoint takes there.
	Steps uint64
	// Size is the ring capacity in epochs; <= 0 means unbounded. An
	// unbounded, checkpoint-free ring records exactly the classic
	// whole-execution log (byte-identical on disk).
	Size int
	// CheckpointEvery captures a checkpoint every N sealed epochs; <= 0
	// disables checkpointing.
	CheckpointEvery int
}

// DefaultEpochSteps is the epoch length when EpochRingOptions leaves
// Steps zero.
const DefaultEpochSteps = 4096

func (o EpochRingOptions) steps() uint64 {
	if o.Steps <= 0 {
		return DefaultEpochSteps
	}
	return o.Steps
}

// epochRecorder wraps the global-log sketch recorder with epoch
// sealing: committed entries accumulate in the inner log as usual, and
// at each qualifying control transfer (sched.EpochObserver seam) the
// accumulated entries are cut into a sealed epoch and appended to the
// ring. The sealing happens off the recorded event stream, so the
// interleaving — and therefore the recorded sketch — is identical to a
// plain recording of the same seeds; only modelled cost differs.
type epochRecorder struct {
	inner  *sketch.Recorder
	world  *vsys.World
	inputs *trace.InputLog
	ring   *trace.EpochRing

	epochSteps      uint64
	checkpointEvery int

	steps      uint64 // committed events so far
	epochStart uint64 // steps at which the open epoch began
	startEntry uint64 // global entry index of the open epoch's first entry
	rolls      uint64 // epochs sealed so far
	highWater  int    // max retained window entries
	digest     *trace.Digest
}

func newEpochRecorder(scheme sketch.Scheme, world *vsys.World, inputs *trace.InputLog, o *EpochRingOptions) *epochRecorder {
	return &epochRecorder{
		inner:           sketch.NewRecorder(scheme),
		world:           world,
		inputs:          inputs,
		ring:            trace.NewEpochRing(o.Size),
		epochSteps:      o.steps(),
		checkpointEvery: o.CheckpointEvery,
		digest:          trace.NewDigest(),
	}
}

// OnRunStart implements sched.RunObserver, forwarding the reservation.
func (r *epochRecorder) OnRunStart(n int) { r.inner.OnRunStart(n) }

// OnEvent implements sched.Observer: the inner recorder appends and
// prices the event; on top, the epoch recorder counts committed events
// and folds the event's sketch projection into the running digest a
// checkpoint will validate replayed prefixes against.
func (r *epochRecorder) OnEvent(ev trace.Event) uint64 {
	r.steps++
	r.digest.Entry(trace.EntryOf(ev))
	return r.inner.OnEvent(ev)
}

// OnEpochSeal implements sched.EpochObserver: at a control transfer, if
// the open epoch has reached its length, seal it into the ring (and
// checkpoint if due). Control transfers are quiescent points — the
// previous thread's effect has committed, the next grant has not run —
// so the world snapshot below observes no half-applied syscall.
func (r *epochRecorder) OnEpochSeal() uint64 {
	if r.steps-r.epochStart < r.epochSteps {
		return 0
	}
	r.roll()
	if r.checkpointEvery > 0 && r.rolls%uint64(r.checkpointEvery) == 0 {
		r.capture()
	}
	return sketch.EpochSealCost
}

// roll cuts the inner log's accumulated entries into a sealed epoch.
// The entries are copied out (not aliased): truncating the log to [:0]
// reuses its backing array for the next epoch's appends.
func (r *epochRecorder) roll() {
	log := r.inner.Log()
	entries := append([]trace.SketchEntry(nil), log.Entries...)
	log.Entries = log.Entries[:0]
	r.ring.Append(trace.Epoch{
		ID:         r.rolls,
		StartStep:  r.epochStart,
		StartEntry: r.startEntry,
		Entries:    entries,
	})
	r.startEntry += uint64(len(entries))
	r.epochStart = r.steps
	r.rolls++
	if n := r.ring.WindowLen(); n > r.highWater {
		r.highWater = n
	}
}

// capture records a checkpoint at the just-sealed boundary: the next
// epoch (ID r.rolls) starts here.
func (r *epochRecorder) capture() {
	snap := r.world.Snapshot()
	wd := trace.NewDigest()
	wd.Bytes(snap)
	r.ring.AddCheckpoint(trace.Checkpoint{
		Epoch:       r.rolls,
		Step:        r.steps,
		SketchIndex: r.startEntry,
		InputIndex:  uint64(len(r.inputs.Records)),
		EventDigest: r.digest.Sum(),
		WorldDigest: wd.Sum(),
		World:       snap,
	})
}

// finish seals the trailing partial epoch and finalizes the ring's
// whole-run bookkeeping. Called once, after the run returns.
func (r *epochRecorder) finish() {
	if len(r.inner.Log().Entries) > 0 || r.rolls == 0 {
		r.roll()
	}
	log := r.inner.Log()
	r.ring.Scheme = log.Scheme
	r.ring.TotalOps = log.TotalOps
	r.ring.Records = log.Records
}

// Log returns the retained window's SketchLog view (whole-run totals,
// window entries). Valid after finish.
func (r *epochRecorder) Log() *trace.SketchLog { return r.ring.WindowLog() }
