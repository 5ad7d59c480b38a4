// Package repro is a from-scratch reproduction of PRES — probabilistic
// replay with execution sketching on multiprocessors (Park et al.,
// SOSP 2009) — as a Go library.
//
// PRES makes production-run concurrency bugs reproducible at low cost:
// during production it records only a cheap "sketch" of the execution
// (the global order of synchronization operations, system calls,
// function entries or basic blocks — plus all non-deterministic inputs),
// and at diagnosis time an intelligent replayer searches the unrecorded
// interleaving space, guided by the sketch and by feedback from failed
// replay attempts, until the failure reproduces. Once reproduced, the
// full interleaving is captured and the bug replays deterministically
// every time.
//
// Because the Go runtime neither exposes thread-scheduling control nor
// allows binary instrumentation, programs run on a deterministic
// simulated multiprocessor (see DESIGN.md): applications are written
// against this package's instrumented API — Cell/Array for shared
// memory, Mutex/Cond/Semaphore/Barrier/WaitGroup/Once for
// synchronization, World for system calls, Func/BB for control-flow
// instrumentation — and every operation is a scheduling point the
// recorder and replayer control.
//
// Quick start:
//
//	prog := &repro.Program{
//		Name: "demo",
//		Run: func(env *repro.Env) { ... racy code ... },
//	}
//	rec := repro.Record(prog, repro.Options{Scheme: repro.SYNC, ScheduleSeed: seed})
//	if rec.BugFailure() != nil {
//		res := repro.Replay(prog, rec, repro.ReplayOptions{Feedback: true})
//		// res.Attempts coordinated replays were needed; afterwards
//		// repro.Reproduce(prog, rec, res.Order) fails identically forever.
//	}
//
// The paper's evaluation — 11 applications, 13 real-world concurrency
// bugs, and every table and figure — is reproduced by the corpus
// (Programs, Bugs) and the cmd/presbench tool.
package repro

import (
	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/ssync"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Execution substrate: the instrumented-program API.
type (
	// Thread is a simulated application thread; all instrumented
	// operations take the current thread.
	Thread = sched.Thread
	// Env is what a Program's Run receives: main thread, syscall world
	// and workload knobs.
	Env = appkit.Env
	// Program is an instrumented application.
	Program = appkit.Program
	// Failure describes a manifested bug (assertion, crash, deadlock)
	// or a replay-machinery outcome.
	Failure = sched.Failure

	// Cell is one shared 64-bit word; Array a shared vector; Matrix a
	// shared row-major 2-D array.
	Cell   = mem.Cell
	Array  = mem.Array
	Matrix = mem.Matrix

	// The synchronization primitives, with pthread-like semantics.
	Mutex     = ssync.Mutex
	RWMutex   = ssync.RWMutex
	Cond      = ssync.Cond
	Semaphore = ssync.Semaphore
	Barrier   = ssync.Barrier
	WaitGroup = ssync.WaitGroup
	Once      = ssync.Once

	// World is the virtual syscall layer; FD an open file handle;
	// Queue a socket-like message queue.
	World = vsys.World
	FD    = vsys.FD
	Queue = vsys.Queue
)

// Shared-memory and synchronization constructors. Names give objects
// stable identities across runs (see the respective packages).
var (
	NewCell      = mem.NewCell
	NewArray     = mem.NewArray
	NewMatrix    = mem.NewMatrix
	NewMutex     = ssync.NewMutex
	NewRWMutex   = ssync.NewRWMutex
	NewCond      = ssync.NewCond
	NewSemaphore = ssync.NewSemaphore
	NewBarrier   = ssync.NewBarrier
	NewWaitGroup = ssync.NewWaitGroup
	NewOnce      = ssync.NewOnce
)

// Func brackets body with function-entry/exit instrumentation (recorded
// by the FUNC sketch); BB marks a basic-block boundary (recorded by the
// BB sketch).
var (
	Func = appkit.Func
	BB   = appkit.BB
)

// Scheme selects a sketching mechanism.
type Scheme = sketch.Scheme

// The sketching mechanisms, cheapest first: BASE records only inputs;
// SYNC the synchronization order; SYS the system-call order; FUNC the
// function entry/exit order; BB the basic-block order; RW the full
// shared-memory access order (prior work's approach, the overhead
// baseline).
const (
	BASE = sketch.BASE
	SYNC = sketch.SYNC
	SYS  = sketch.SYS
	FUNC = sketch.FUNC
	BB_  = sketch.BB // named BB_ to avoid clashing with the BB marker func
	RW   = sketch.RW
)

// DefaultEpochSteps is the epoch length used when EpochRingOptions
// leaves Steps zero.
const DefaultEpochSteps = core.DefaultEpochSteps

// Schemes lists every sketching mechanism, cheapest first.
func Schemes() []Scheme { return sketch.All() }

// ParseScheme converts a scheme name (case-insensitive) to a Scheme.
var ParseScheme = sketch.Parse

// Recording, replay and reproduction — PRES itself.
type (
	// Options parameterizes a production run.
	Options = core.Options
	// EpochRingOptions selects always-on recording (set Options.EpochRing):
	// the sketch is sealed into fixed-length epochs kept in a bounded
	// ring, with periodic world checkpoints; replay of such a recording
	// starts at its newest retained checkpoint.
	EpochRingOptions = core.EpochRingOptions
	// Recording holds a production run's sketch, input log and outcome.
	Recording = core.Recording
	// ReplayOptions parameterizes the intelligent replayer.
	ReplayOptions = core.ReplayOptions
	// ReplayResult is the outcome of the replay search.
	ReplayResult = core.ReplayResult
	// Oracle matches a manifested failure against the bug under
	// diagnosis.
	Oracle = core.Oracle
	// FullOrder is a captured total schedule that reproduces a bug
	// deterministically.
	FullOrder = trace.FullOrder
	// RunResult summarizes one execution of the simulated machine.
	RunResult = sched.Result
	// RacePair is an observed race between two accesses; the replayer
	// reports the pairs it reversed as root causes.
	RacePair = race.Pair

	// ExploreOptions / ExploreResult parameterize and summarize
	// exhaustive schedule exploration (see Explore).
	ExploreOptions = sched.ExploreOptions
	ExploreResult  = sched.ExploreResult
)

var (
	// Record performs one production run under a sketching mechanism.
	Record = core.Record
	// Replay searches the unrecorded non-determinism until the bug
	// reproduces, returning the captured full order on success.
	Replay = core.Replay
	// Reproduce replays a captured full order verbatim.
	Reproduce = core.Reproduce
	// RecordContext, ReplayContext and ReproduceContext are the
	// context-aware forms: cancelling the context (or exceeding its
	// deadline) winds the execution down cooperatively at the next
	// scheduling point — a cancelled search drains its worker pool,
	// commits the attempts that already finished, and reports the
	// context's error in ReplayResult.Err.
	RecordContext    = core.RecordContext
	ReplayContext    = core.ReplayContext
	ReproduceContext = core.ReproduceContext
	// MatchBugID builds an oracle for a specific corpus bug id.
	MatchBugID = core.MatchBugID
	// ReadRecording deserializes a recording written with
	// Recording.Write.
	ReadRecording = core.ReadRecording
	// Simplify minimizes the context switches of a captured schedule
	// while preserving the failure, for human consumption.
	Simplify = core.Simplify
	// Switches counts the context switches in a schedule.
	Switches = core.Switches
	// Advise turns a failed replay search's statistics into guidance:
	// which knob (sketch density, budget, oracle) is binding.
	Advise = core.Advise
	// ErrCheckpointMismatch is ReplayResult.Err for a search whose
	// re-execution of the recording's checkpoint prefix missed the
	// checkpoint, most often under the wrong schedule seed.
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
	// ErrCheckpointOrder is wrapped by Recording.Validate's error for a
	// recording whose checkpoints are out of capture order.
	ErrCheckpointOrder = core.ErrCheckpointOrder
)

// Explore exhaustively enumerates every schedule of a small program — a
// stateless model checker over the same substrate PRES records on. It
// is the brute-force contrast that motivates PRES: exhaustive
// enumeration is a proof but explodes combinatorially, while
// sketch-guided probabilistic replay scales to real programs. Explore
// runs a bare root function; adapt a Program with a fresh World per run.
var Explore = sched.Explore

// ReplaySchedule re-executes a root function under a decision sequence
// returned by Explore (e.g. its FirstFailingSchedule).
var ReplaySchedule = sched.ReplaySchedule

// ExploreProgram exhaustively enumerates the schedules of a Program,
// building a fresh syscall world per execution from opts (only
// WorldSeed, Scale and FixBugs are meaningful here).
func ExploreProgram(prog *Program, opts Options, eopts ExploreOptions) *ExploreResult {
	return sched.Explore(func(t *Thread) {
		prog.Run(&Env{
			T:       t,
			W:       vsys.NewWorld(opts.WorldSeed),
			Scale:   opts.Scale,
			Procs:   opts.Processors,
			FixBugs: opts.FixBugs,
		})
	}, eopts)
}

// Observability: the metric/trace contract is documented in
// OBSERVABILITY.md. Set Options.Metrics / ReplayOptions.Metrics to a
// registry (and ReplayOptions.Trace to a sink) to instrument recording
// and replay; leave them nil — the default — for a measurement-free
// hot path.
type (
	// MetricsRegistry collects counters, gauges and histograms from
	// recording, replay and the scheduling substrate. A nil registry
	// disables collection at zero cost.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time, JSON-marshalable copy of a
	// registry.
	MetricsSnapshot = obs.Snapshot
	// TraceSink writes structured JSONL replay-search events.
	TraceSink = obs.TraceSink
	// AttemptEvent is one replay attempt's structured trace record.
	AttemptEvent = obs.AttemptEvent
	// RecordEvent is one production run's structured trace record.
	RecordEvent = obs.RecordEvent
	// SearchSummaryEvent closes one replay search's trace.
	SearchSummaryEvent = obs.SummaryEvent
)

// Trace event type tags (the "event" field of every JSONL trace line).
const (
	EventAttempt = obs.EventAttempt
	EventRecord  = obs.EventRecord
	EventSummary = obs.EventSummary
)

var (
	// NewMetricsRegistry returns an empty, enabled metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewTraceSink returns a JSONL trace sink writing to an io.Writer.
	NewTraceSink = obs.NewTraceSink
	// WriteMetrics serializes a registry snapshot as "json" (default)
	// or "prom" (Prometheus text exposition format).
	WriteMetrics = obs.WriteSnapshot
)

// The evaluation corpus: the paper's 11 applications and 13 bugs.
type BugInfo = apps.BugInfo

var (
	// Programs returns the 11 corpus applications.
	Programs = apps.All
	// GetProgram returns a corpus application by name.
	GetProgram = apps.Get
	// Bugs returns the 13 corpus bugs.
	Bugs = apps.AllBugs
	// GetBug returns a corpus bug by id.
	GetBug = apps.GetBug
	// ProgramForBug returns the application manifesting a bug.
	ProgramForBug = apps.ProgramForBug
)

// BugPattern is one canonical concurrency-bug pattern from the catalog:
// a tiny parameterized program with exhaustively proven ground truth.
type BugPattern = patterns.Pattern

// Patterns returns the 8-entry canonical bug-pattern catalog (atomicity
// violations, order violations, deadlocks, a lost wakeup, a barrier
// misuse) — a regression battery independent of the application
// corpus. The livelock, ABA, double-checked-locking and loaded
// lost-wakeup shapes are the scenario generator's templates instead.
var Patterns = patterns.All
