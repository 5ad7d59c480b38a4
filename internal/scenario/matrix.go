package scenario

import (
	"fmt"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sketch"
)

// Outcome classifies how a production run ended, the vocabulary the
// matrix's expectations are declared in.
type Outcome uint8

const (
	// Clean: the run completed without any failure.
	Clean Outcome = iota
	// Bug: a corpus assertion bug manifested (sched.ReasonAssert with a
	// bug id).
	Bug
	// Crash: the run panicked (an injected fault path or a real one).
	Crash
	// Deadlock: the detector found no runnable thread — either a corpus
	// deadlock bug or an injected wedge propagating.
	Deadlock
	// Other: machinery outcomes (step limit, divergence, cancellation).
	Other
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case Bug:
		return "bug"
	case Crash:
		return "crash"
	case Deadlock:
		return "deadlock"
	default:
		return "other"
	}
}

// Classify maps a run's failure to the matrix outcome vocabulary.
func Classify(f *sched.Failure) Outcome {
	switch {
	case f == nil:
		return Clean
	case f.Reason == sched.ReasonAssert && f.BugID != "":
		return Bug
	case f.Reason == sched.ReasonCrash:
		return Crash
	case f.Reason == sched.ReasonDeadlock:
		return Deadlock
	default:
		return Other
	}
}

// Cell is one (app, failure class) cell of the injection matrix with
// its declared expectation: an outcome the pipeline must produce
// within the seed budget and — for failures — replay to reproduction.
type Cell struct {
	App   string
	Class string
	Want  Outcome
	// EpochRing selects the always-on recording variant of the cell:
	// the production run records into a bounded epoch ring with
	// periodic checkpoints (core.Options.EpochRing), so the replay
	// starts from the newest retained checkpoint. The expectation is
	// unchanged — the injected failure must still be found and
	// reproduced from the bounded recording.
	EpochRing bool
}

// Matrix returns the pinned expectation table: every corpus app
// crossed with the failure classes that change its observable outcome,
// plus the baseline control column. Expectations were pinned
// empirically (TestMatrixPins re-derives a sample) and encode how each
// app's structure responds to each class: queue-driven apps deadlock
// when sends are shed or a consumer wedges, syscall-heavy servers hit
// the injected panic path, compute kernels shrug off I/O classes they
// never exercise.
func Matrix() []Cell {
	cells := []Cell{}
	for _, app := range apps.All() {
		for _, cl := range Classes() {
			cells = append(cells, Cell{App: app.Name, Class: cl.Name, Want: want(app.Name, cl.Name)})
		}
	}
	return cells
}

// ringGeometry is the epoch-ring setting the variant cells record
// under: short epochs (the injected failures land within a few
// hundred steps), a 4-epoch window, a checkpoint every seal. A cell
// whose failure predates the first checkpoint falls back to
// from-start replay — the expectation must hold either way.
var ringGeometry = core.EpochRingOptions{Steps: 64, Size: 4, CheckpointEvery: 1}

// Variants returns the always-on recording variants: every crash and
// lock-wedge cell with a failure expectation, re-run with the
// recording bounded to an epoch ring and replay restarted at the
// newest retained checkpoint. These two classes are the variants
// worth pinning: their injected event is deterministic per thread, so
// a bounded window must not lose it — the discarded prefix is exactly
// the history the checkpoint replaces.
func Variants() []Cell {
	var out []Cell
	for _, c := range Matrix() {
		if (c.Class == "crash" || c.Class == "lock-wedge") && c.Want != Clean {
			c.EpochRing = true
			out = append(out, c)
		}
	}
	return out
}

// pins is the empirically derived expectation table, row per app in
// class column order (baseline, slow-io, io-error, overload, crash,
// lock-wedge). Derived by classifying 120 production seeds per cell at
// the matrix settings (SYNC, 4 procs, preempt 0.05, world seed 1) and
// pinning an outcome each class makes reachable within the budget:
//
//   - The syscall-heavy servers reach the injected panic (their threads
//     pass 12 syscalls); the compute kernels never do and keep their
//     baseline behavior under the crash class.
//   - A wedged second lock acquisition strands the logging/queue
//     protocols of apached, barnes, mysqld, openldapd, pbzip2 and
//     radix into detected deadlocks; the remaining apps never acquire
//     twice on one thread and shrug it off.
//   - aget only manifests its SIGINT-save atomicity bug once slow or
//     shed I/O stretches the unsynchronized window — its baseline
//     column is clean at this preemption rate, the injected columns
//     are not. lu's pivot race needs more contention than any class
//     provides here, so its row pins the clean control everywhere.
var pins = map[string][6]Outcome{
	"aget":         {Clean, Bug, Clean, Bug, Crash, Clean},
	"apached":      {Bug, Bug, Bug, Bug, Crash, Deadlock},
	"barnes":       {Clean, Clean, Clean, Clean, Clean, Deadlock},
	"cherokeed":    {Bug, Bug, Bug, Bug, Bug, Bug},
	"fft":          {Bug, Bug, Bug, Bug, Bug, Bug},
	"lu":           {Clean, Clean, Clean, Clean, Clean, Clean},
	"mysqld":       {Bug, Bug, Bug, Bug, Crash, Deadlock},
	"openldapd":    {Deadlock, Deadlock, Deadlock, Deadlock, Crash, Deadlock},
	"pbzip2":       {Bug, Bug, Bug, Bug, Clean, Deadlock},
	"radix":        {Deadlock, Deadlock, Deadlock, Deadlock, Deadlock, Deadlock},
	"transmission": {Bug, Bug, Bug, Bug, Crash, Bug},
}

// want is the pinned expectation for one cell.
func want(app, class string) Outcome {
	row, ok := pins[app]
	if !ok {
		return Other
	}
	for i, cl := range Classes() {
		if cl.Name == class {
			return row[i]
		}
	}
	return Other
}

// CellResult is one driven cell.
type CellResult struct {
	Cell
	// Seed is the first production seed whose outcome matched Want
	// (-1 when none was found).
	Seed int64
	// Found reports whether the seed search succeeded.
	Found bool
	// Attempts/Reproduced describe the replay of the matching
	// recording; clean cells don't replay and report Reproduced=true.
	Attempts   int
	Reproduced bool
	Err        error
}

// OK reports whether the cell met its expectation end to end.
func (r CellResult) OK() bool { return r.Err == nil && r.Found && r.Reproduced }

// oracleFor matches the wanted failure during replay. Bug cells pin
// the exact manifested bug id; crash and deadlock cells accept any
// failure of their reason — the injected fault or wedge is the same
// deterministic event in every attempt.
func oracleFor(wantOutcome Outcome, f *sched.Failure) core.Oracle {
	switch wantOutcome {
	case Crash:
		return func(g *sched.Failure) bool { return g.Reason == sched.ReasonCrash }
	case Deadlock:
		return func(g *sched.Failure) bool { return g.Reason == sched.ReasonDeadlock }
	default:
		return core.MatchBugID(f.BugID)
	}
}

// RunCell drives one matrix cell: search production seeds for the
// declared outcome, then — for failure outcomes — replay the recording
// until the same failure reproduces and re-execute the captured order.
func RunCell(cell Cell, cfg Config) CellResult {
	res := CellResult{Cell: cell, Seed: -1}
	prog, ok := apps.Get(cell.App)
	if !ok {
		res.Err = fmt.Errorf("scenario: unknown app %q", cell.App)
		return res
	}
	cl, ok := ClassByName(cell.Class)
	if !ok {
		res.Err = fmt.Errorf("scenario: unknown class %q", cell.Class)
		return res
	}
	if m := cfg.Metrics; m != nil {
		m.Counter("pres_scenario_cells_total", "class", cell.Class).Inc()
	}
	var ring *core.EpochRingOptions
	if cell.EpochRing {
		g := ringGeometry
		ring = &g
	}
	seed, rec, err := findOutcome(prog, cl, cell.Want, ring, cfg)
	if err != nil {
		res.Err = err
		return res
	}
	res.Seed, res.Found = seed, true
	if cell.Want == Clean {
		res.Reproduced = true // nothing to replay
		return res
	}
	rep := core.ReplayContext(cfg.ctx(), prog, rec, core.ReplayOptions{
		Feedback:    true,
		MaxAttempts: cfg.maxAttempts(),
		Oracle:      oracleFor(cell.Want, rec.Result.Failure),
		Metrics:     cfg.Metrics,
	})
	res.Attempts, res.Reproduced = rep.Attempts, rep.Reproduced
	if !rep.Reproduced {
		res.Err = fmt.Errorf("scenario: %s/%s not reproduced in %d attempts", cell.App, cell.Class, rep.Attempts)
		return res
	}
	out := core.ReproduceContext(cfg.ctx(), prog, rec, rep.Order)
	if Classify(out.Failure) != cell.Want {
		res.Err = fmt.Errorf("scenario: %s/%s captured order replays as %v, want %v",
			cell.App, cell.Class, Classify(out.Failure), cell.Want)
	}
	return res
}

// findOutcome searches production seeds until prog under the class's
// injection ends with the wanted outcome. A non-nil ring records each
// probe into an epoch ring (the always-on variant cells).
func findOutcome(prog *appkit.Program, cl Class, wantOutcome Outcome, ring *core.EpochRingOptions, cfg Config) (int64, *core.Recording, error) {
	for seed := int64(0); seed < int64(cfg.seedBudget()); seed++ {
		if err := cfg.ctx().Err(); err != nil {
			return -1, nil, err
		}
		rec := core.RecordContext(cfg.ctx(), prog, core.Options{
			Scheme:       sketch.SYNC,
			Processors:   cfg.processors(),
			Preempt:      preempt,
			ScheduleSeed: seed,
			WorldSeed:    worldSeed,
			MaxSteps:     maxSteps,
			Inject:       cl.New,
			EpochRing:    ring,
			Metrics:      cfg.Metrics,
		})
		if m := cfg.Metrics; m != nil {
			m.Counter("pres_scenario_cell_seeds_total", "class", cl.Name).Inc()
		}
		if Classify(rec.Result.Failure) == wantOutcome {
			return seed, rec, nil
		}
	}
	return -1, nil, fmt.Errorf("scenario: %s/%s never produced %v in %d seeds",
		prog.Name, cl.Name, wantOutcome, cfg.seedBudget())
}
