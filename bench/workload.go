package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// spec is one named workload. Record workloads pair an unrecorded run
// with a recorded one on the same seeds; diagnose workloads search
// buggy recordings found by a seed scan during setup.
type spec struct {
	name string
	why  string // why the workload exists; BENCHMARK.json carries the same line

	// Record workloads: the programs, cycled, and the recording options
	// every pair shares (the schedule and world seeds come from -seed).
	apps  []string
	opts  core.Options
	pairs int

	// Diagnose workloads: the bugs, how many buggy recordings of each
	// setup finds, and the search's worker count. A measured run covers
	// the whole pool a whole number of times (see workload.period).
	bugs    []string
	perBug  int
	workers int
}

// alwaysOnRing is the epoch ring of a long-running service: 2048-step
// epochs, 8 retained, a checkpoint at every seal.
var alwaysOnRing = core.EpochRingOptions{Steps: 2048, Size: 8, CheckpointEvery: 1}

// recordScale sizes the recorded programs so one run takes ~10-25 ms:
// long enough to time, short enough for hundreds of pairs per run.
const recordScale = 800

var specs = []spec{
	{
		name:  "record-dense",
		why:   "fft/lu/radix/barnes under RW: about one sketch entry per step, so sketch append and trace encode dominate the recording cost",
		apps:  []string{"fft", "lu", "radix", "barnes"},
		opts:  core.Options{Scheme: sketch.RW, Processors: 4, Scale: recordScale, FixBugs: true},
		pairs: 600,
	},
	{
		name:  "record-always-on",
		why:   "the seven server and client apps under a sparse SYNC sketch in an epoch ring: vsys/ssync, epoch sealing and world checkpoints dominate",
		apps:  []string{"mysqld", "apached", "cherokeed", "openldapd", "pbzip2", "aget", "transmission"},
		opts:  core.Options{Scheme: sketch.SYNC, Processors: 4, Scale: recordScale, FixBugs: true, EpochRing: &alwaysOnRing},
		pairs: 300,
	},
	{
		name:    "diagnose-shallow",
		why:     "the 12 corpus bugs other than mysql-791: 1-29 attempts per search, so per-attempt execution (sched, race, director) dominates",
		bugs:    shallowBugs(),
		perBug:  10,
		workers: 1,
	},
	{
		name:    "diagnose-deep",
		why:     "mysql-791 at Workers 2: hundreds of attempts per search, so the frontier, exec pool and feedback bookkeeping dominate",
		bugs:    []string{"mysql-791"},
		perBug:  40,
		workers: 2,
	},
}

func shallowBugs() []string {
	var out []string
	for _, b := range apps.AllBugs() {
		if b.ID != "mysql-791" {
			out = append(out, b.ID)
		}
	}
	return out
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// seedFor derives the seed for one use of randomness (a record
// workload's schedule or world seeds) from the run's -seed, so every
// input is a function of -seed alone.
func seedFor(seed int64, use string) int64 {
	h := fnv.New64a()
	h.Write([]byte(use))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % 1_000_000_000)
}

// sample is what one operation measured.
type sample struct {
	opWall    time.Duration // the measured operation
	baseWall  time.Duration // unrecorded run of the same program and seeds
	steps     uint64        // steps the operation executed
	prodSteps uint64        // steps of the production run it concerns
	logBytes  int           // size of that run's recording
	failed    bool          // recorded run failed, or search did not reproduce
	traced    bool          // spans were kept for this operation
	heldMB    float64       // memory the runtime held after the operation

	// Diagnose operations only. order is the captured order of a
	// reproduced search; runs keep it only where the ledger needs it.
	in         *diagInput
	searchWall time.Duration
	attempts   int
	diverged   int
	order      *trace.FullOrder
	orderWall  time.Duration
	orderSteps uint64
}

// gateError is a correctness gate that fired: the benchmark's numbers
// are not to be trusted, so the run exits non-zero.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error {
	return &gateError{fmt.Sprintf(format, args...)}
}

// workload is a set-up input pool and the operation run over it.
type workload interface {
	// size is the number of distinct inputs; op(i) uses input i mod size.
	size() int
	// period is how many consecutive operations cover a balanced mix of
	// the inputs; a measured run stops only at a multiple of it, so the
	// mix is the same on every run.
	period() int
	// fingerprint identifies the inputs, to check that setup is a pure
	// function of the seed.
	fingerprint() uint64
	op(i int, tr *tracer) (sample, error)
}

// timeUnrecorded times the unrecorded run of prog under opts and returns
// its wall time and result. A run too short to time alone (the diagnose
// workloads' production runs stop at their bug within a few hundred
// steps) is repeated until the repetitions cover about 2000 steps, up to
// nine times, and the median kept.
func timeUnrecorded(prog *appkit.Program, opts core.Options, tr *tracer) (time.Duration, *sched.Result) {
	var res *sched.Result
	walls := []float64{float64(tr.time("sched.Run", func() { res, _ = runUnrecorded(prog, opts) }))}
	for len(walls) < min(9, 2000/int(max(res.Steps, 1))) {
		walls = append(walls, float64(tr.time("sched.Run", func() { runUnrecorded(prog, opts) })))
	}
	return time.Duration(median(walls)), res
}

// runUnrecorded executes prog under the production scheduler opts
// describes, with no observer and a live world: the run PRES's recording
// overhead is measured against. It returns the world as the run left it.
func runUnrecorded(prog *appkit.Program, opts core.Options) (*sched.Result, *vsys.World) {
	w := vsys.NewWorld(opts.WorldSeed)
	res := sched.Run(func(t *sched.Thread) {
		prog.Run(&appkit.Env{T: t, W: w, Scale: opts.Scale, Procs: opts.Processors, FixBugs: opts.FixBugs})
	}, sched.Config{
		Strategy: sched.NewRandomMP(opts.Processors, core.DefaultPreempt, opts.ScheduleSeed),
		MaxSteps: opts.MaxSteps,
	})
	return res, w
}

// checkRoundTrip is the recording gate: data decodes, validates, and
// re-encodes to the same bytes.
func checkRoundTrip(data []byte, opts core.Options, scratch *bytes.Buffer) error {
	rr, err := core.ReadRecording(bytes.NewReader(data), opts)
	if err != nil {
		return gatef("recording does not decode: %v", err)
	}
	if err := rr.Validate(); err != nil {
		return gatef("recording does not validate: %v", err)
	}
	scratch.Reset()
	if err := rr.Write(scratch); err != nil {
		return gatef("decoded recording does not re-encode: %v", err)
	}
	if !bytes.Equal(scratch.Bytes(), data) {
		return gatef("recording re-encodes to %d bytes, not the %d it was read from", scratch.Len(), len(data))
	}
	return nil
}

type recordInput struct {
	prog *appkit.Program
	opts core.Options
}

// recordWorkload pairs, per operation, an unrecorded run with
// Record+Write on the same seeds; the operation timed is Record+Write.
type recordWorkload struct {
	pool     []recordInput
	nprogs   int
	buf, tmp bytes.Buffer
}

func newRecordWorkload(sp spec, seed int64) (*recordWorkload, error) {
	s0 := seedFor(seed, sp.name+"/schedule")
	w0 := seedFor(seed, sp.name+"/world")
	w := &recordWorkload{nprogs: len(sp.apps)}
	for i := 0; i < sp.pairs; i++ {
		name := sp.apps[i%len(sp.apps)]
		prog, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("%s: no program %q", sp.name, name)
		}
		opts := sp.opts
		opts.ScheduleSeed = s0 + int64(i)
		opts.WorldSeed = w0 + int64(i)
		w.pool = append(w.pool, recordInput{prog, opts})
	}
	return w, nil
}

func (w *recordWorkload) size() int { return len(w.pool) }

// period is one pass over the programs: the pool cycles through them.
func (w *recordWorkload) period() int { return w.nprogs }

func (w *recordWorkload) fingerprint() uint64 {
	h := fnv.New64a()
	for _, in := range w.pool {
		fmt.Fprintf(h, "%s/%d/%d;", in.prog.Name, in.opts.ScheduleSeed, in.opts.WorldSeed)
	}
	return h.Sum64()
}

func (w *recordWorkload) op(i int, tr *tracer) (sample, error) {
	in := w.pool[i%len(w.pool)]
	var s sample
	var base *sched.Result
	var rec *core.Recording
	var werr error
	unrecorded := func() { s.baseWall, base = timeUnrecorded(in.prog, in.opts, tr) }
	recorded := func() {
		s.opWall = tr.time("record", func() {
			tr.time("core.Record", func() { rec = core.Record(in.prog, in.opts) })
			w.buf.Reset()
			tr.time("Recording.Write", func() { werr = rec.Write(&w.buf) })
		})
	}
	// Alternate which half runs first once per pass over the programs,
	// so neither half always inherits the other's garbage.
	if (i/w.nprogs)%2 == 0 {
		unrecorded()
		recorded()
	} else {
		recorded()
		unrecorded()
	}
	if werr != nil {
		return s, gatef("%s: write recording: %v", in.prog.Name, werr)
	}
	if base.Steps != rec.Result.Steps {
		return s, gatef("%s seed %d: unrecorded run committed %d steps, recorded run %d",
			in.prog.Name, in.opts.ScheduleSeed, base.Steps, rec.Result.Steps)
	}
	if err := checkRoundTrip(w.buf.Bytes(), in.opts, &w.tmp); err != nil {
		return s, fmt.Errorf("%s seed %d: %w", in.prog.Name, in.opts.ScheduleSeed, err)
	}
	s.steps = rec.Result.Steps
	s.prodSteps = rec.Result.Steps
	s.logBytes = w.buf.Len()
	s.failed = rec.Result.Failure != nil
	return s, nil
}

type diagInput struct {
	bug   string
	prog  *appkit.Program
	opts  core.Options
	data  []byte // the production run's recording, as Recording.Write wrote it
	steps uint64 // the production run's committed steps
}

// diagWorkload searches, per operation, one buggy recording read back
// from its serialized form (what presreplay does), then re-runs the
// captured order. The operation timed is ReadRecording+Validate+Replay.
type diagWorkload struct {
	pool    []diagInput
	workers int
	tmp     bytes.Buffer
}

// scanBudget bounds the production seeds tried per bug; the rarest
// corpus bug (lu-atomicity) manifests in about one seed in 500.
const scanBudget = 50_000

// newDiagWorkload scans production seeds 0, 1, 2, ... for the first
// perBug buggy SYNC recordings of each bug.
//
// The recordings do not depend on -seed. How many attempts a search
// needs is a property of its recording, and it is multi-modal: from its
// serialized recording, mysql-791 needs 37, 85, 91, 267 or 417 attempts,
// with the 417 mode about half the time. A pool drawn afresh per seed
// moved diagnose-deep's median search time between modes (128 to 280 ms
// over ten seeds), so the diagnose workloads search a fixed corpus, as a
// tool replaying a set of bug reports would.
func newDiagWorkload(name string, bugs []string, perBug, workers int) (*diagWorkload, error) {
	w := &diagWorkload{workers: workers}
	for _, bug := range bugs {
		prog, ok := apps.ProgramForBug(bug)
		if !ok {
			return nil, fmt.Errorf("%s: no program for bug %q", name, bug)
		}
		oracle := core.MatchBugID(bug)
		found := 0
		for s := int64(0); found < perBug; s++ {
			if s >= scanBudget {
				return nil, fmt.Errorf("%s: %s manifested %d times in %d seeds, want %d", name, bug, found, scanBudget, perBug)
			}
			opts := core.Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: s, WorldSeed: 1, MaxSteps: 300_000}
			rec := core.Record(prog, opts)
			if f := rec.BugFailure(); f == nil || !oracle(f) {
				continue
			}
			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				return nil, fmt.Errorf("%s: write %s recording: %w", name, bug, err)
			}
			w.pool = append(w.pool, diagInput{bug: bug, prog: prog, opts: opts, data: buf.Bytes(), steps: rec.Result.Steps})
			found++
		}
	}
	return w, nil
}

func (w *diagWorkload) size() int { return len(w.pool) }

// period is the whole pool: search depth differs by recording, so only
// whole passes give every run the same mix.
func (w *diagWorkload) period() int { return len(w.pool) }

func (w *diagWorkload) fingerprint() uint64 {
	h := fnv.New64a()
	for _, in := range w.pool {
		fmt.Fprintf(h, "%s/%d;", in.bug, in.opts.ScheduleSeed)
		h.Write(in.data)
	}
	return h.Sum64()
}

func (w *diagWorkload) op(i int, tr *tracer) (sample, error) {
	in := &w.pool[i%len(w.pool)]
	oracle := core.MatchBugID(in.bug)
	s := sample{in: in, prodSteps: in.steps, logBytes: len(in.data)}
	var rr *core.Recording
	var res *core.ReplayResult
	var err error
	s.opWall = tr.time("diagnose", func() {
		tr.time("core.ReadRecording", func() { rr, err = core.ReadRecording(bytes.NewReader(in.data), in.opts) })
		if err != nil {
			return
		}
		tr.time("Recording.Validate", func() { err = rr.Validate() })
		if err != nil {
			return
		}
		s.searchWall = tr.time("core.Replay", func() {
			res = core.Replay(in.prog, rr, core.ReplayOptions{Feedback: true, Workers: w.workers, Oracle: oracle})
		})
	})
	if err != nil {
		return s, gatef("%s seed %d: recording does not decode and validate: %v", in.bug, in.opts.ScheduleSeed, err)
	}
	s.steps = res.Stats.Steps
	s.attempts = res.Attempts
	s.diverged = res.Stats.Divergences
	if res.Reproduced {
		var rp *sched.Result
		s.orderWall = tr.time("core.Reproduce", func() { rp = core.Reproduce(in.prog, rr, res.Order) })
		if rp.Failure == nil || !oracle(rp.Failure) {
			return s, gatef("%s seed %d: captured order of %d steps does not re-manifest the bug (got %v)",
				in.bug, in.opts.ScheduleSeed, res.Order.Len(), rp.Failure)
		}
		s.order = res.Order
		s.orderSteps = rp.Steps
	} else {
		s.failed = true
	}
	var base *sched.Result
	s.baseWall, base = timeUnrecorded(in.prog, in.opts, tr)
	if base.Steps != in.steps {
		return s, gatef("%s seed %d: unrecorded run committed %d steps, recorded run %d",
			in.bug, in.opts.ScheduleSeed, base.Steps, in.steps)
	}
	if err := checkRoundTrip(in.data, in.opts, &w.tmp); err != nil {
		return s, fmt.Errorf("%s seed %d: %w", in.bug, in.opts.ScheduleSeed, err)
	}
	return s, nil
}

// probeBugs are the corpus bugs of a record workload's programs: the
// ledger searches them to price the search layers on those programs.
func probeBugs(progs []string) []string {
	var out []string
	for _, b := range apps.AllBugs() {
		for _, p := range progs {
			if b.App == p {
				out = append(out, b.ID)
			}
		}
	}
	return out
}
