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
// recording (the last Size epochs, and the input records from the
// oldest retained checkpoint on) whose replay search starts from the
// newest checkpoint rather than from process start.
//
// A checkpoint serializes no state at all — application threads live
// inside Program.Run and cannot be transplanted, and the world is
// rebuilt by re-execution. It captures only the boundary's *identity*:
// committed-event count, sketch/input positions, an event-stream digest
// and the virtual world's digest (vsys.World.Digest). Replay
// re-establishes the boundary by deterministically re-executing the
// prefix under the production strategy (cheap: no enforcement and no
// race detection is required for correctness — the production schedule
// is a pure function of the recorded seeds) and validating both digests
// at the switch point; see prefixStrategy in prefix.go.

// EpochRingOptions configures epoch-segmented recording.
type EpochRingOptions struct {
	// Steps is the epoch length in committed events; <= 0 means
	// DefaultEpochSteps. Epochs seal at the first control transfer at or
	// after the threshold, so every epoch boundary is a scheduler
	// quiescent point (no thread mid-effect) — the precondition for the
	// world digest a checkpoint takes there.
	Steps uint64
	// Size is the ring capacity in epochs; <= 0 means unbounded. An
	// unbounded, checkpoint-free ring records exactly the classic
	// whole-execution log (byte-identical on disk).
	Size int
	// CheckpointEvery captures a checkpoint every N sealed epochs; <= 0
	// disables checkpointing. When N <= Size (or the ring is unbounded),
	// every seal leaves the ring holding a checkpoint, and the recorder
	// keeps input records only from the oldest retained one on. A
	// sparser cadence can end the run with no checkpoint, so that ring
	// keeps its whole input log (see cutsInputs).
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
	// inputsEvicted counts the input records cut from the front of the
	// log (cutInputs).
	inputsEvicted uint64
	digest        *trace.Digest
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

// cutsInputs reports whether the recorder's ring may drop the input
// records before its oldest retained checkpoint: only if no seal, the
// trailing one in finish included, can leave the ring without a
// checkpoint. Once the first checkpoint is captured, the newest one is
// at most CheckpointEvery epochs behind the last seal (the trailing
// seal captures none), and a bounded ring keeps the checkpoints of its
// last Size epochs, so that needs CheckpointEvery <= Size. A ring that
// ends with no checkpoint replays from process start and reads its
// input log from index 0, so a sparser ring must keep the whole log.
func (r *epochRecorder) cutsInputs() bool {
	return r.checkpointEvery > 0 && (r.ring.Size <= 0 || r.checkpointEvery <= r.ring.Size)
}

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
// so the world digest a checkpoint takes here observes no half-applied
// syscall.
func (r *epochRecorder) OnEpochSeal() uint64 {
	if r.steps-r.epochStart < r.epochSteps {
		return 0
	}
	r.roll()
	if r.checkpointEvery > 0 && r.rolls%uint64(r.checkpointEvery) == 0 {
		r.capture()
	}
	r.cutInputs()
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
// epoch (ID r.rolls) starts here. It keeps the world's digest, not its
// snapshot, since replay reads back only the digest.
func (r *epochRecorder) capture() {
	r.ring.AddCheckpoint(trace.Checkpoint{
		Epoch:       r.rolls,
		Step:        r.steps,
		SketchIndex: r.startEntry,
		InputIndex:  uint64(len(r.inputs.Records)),
		EventDigest: r.digest.Sum(),
		WorldDigest: r.world.Digest(),
	})
}

// cutInputs drops the input records logged before the oldest retained
// checkpoint and rebases every checkpoint's InputIndex onto what is
// left. Replay never reads them: it starts at the newest checkpoint
// and re-executes the prefix with the world regenerating its inputs
// (checkpoint.go), so no retained checkpoint can reach a record from
// before the oldest one. Seals are quiescent points, so no input append
// is in flight; the world appends to the same *InputLog, and once its
// backing array regrows, the copy holds only the retained records. A
// ring without a checkpoint, or whose geometry cannot promise to keep
// one (cutsInputs), keeps every input.
func (r *epochRecorder) cutInputs() {
	if !r.cutsInputs() || len(r.ring.Checkpoints) == 0 || r.ring.Checkpoints[0].InputIndex == 0 {
		return
	}
	k := r.ring.Checkpoints[0].InputIndex
	clear(r.inputs.Records[:k]) // release the dropped records' data
	r.inputs.Records = r.inputs.Records[k:]
	for i := range r.ring.Checkpoints {
		r.ring.Checkpoints[i].InputIndex -= k
	}
	r.inputsEvicted += k
}

// finish seals the trailing partial epoch and finalizes the ring's
// whole-run bookkeeping. Called once, after the run returns.
func (r *epochRecorder) finish() {
	if len(r.inner.Log().Entries) > 0 || r.rolls == 0 {
		r.roll()
		r.cutInputs()
	}
	log := r.inner.Log()
	r.ring.Scheme = log.Scheme
	r.ring.TotalOps = log.TotalOps
	r.ring.Records = log.Records
}

// Log returns the retained window's SketchLog view (whole-run totals,
// window entries). Valid after finish.
func (r *epochRecorder) Log() *trace.SketchLog { return r.ring.WindowLog() }
