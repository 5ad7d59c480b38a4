// Package harness drives the paper's evaluation: it searches production
// seeds for runs that manifest each corpus bug, measures recording
// overhead and log sizes for every sketching mechanism, counts replay
// attempts to reproduction, and renders the tables and figures of
// EXPERIMENTS.md (experiments E1-E11 in DESIGN.md). Experiment
// matrices fan their independent cells out to a worker pool
// (Config.Jobs, presbench -j) whose results commit in canonical cell
// order, so the rendered tables are byte-identical at any -j.
//
// When Config.Metrics is set, every recording and replay the harness
// performs feeds the shared registry, and each experiment stamps its
// own wall time into pres_harness_experiment_seconds{exp=...} — so a full
// presbench run yields one aggregate metric snapshot alongside its
// tables (rendered by PrintMetrics, written by presbench
// -metrics-out). Config.Trace likewise captures every replay attempt
// across all experiments as one JSONL stream. See OBSERVABILITY.md for
// the contract.
package harness

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Config parameterizes a whole experiment run.
type Config struct {
	// Ctx, when non-nil, bounds every execution the harness performs:
	// seed searches, recordings and replay searches all observe it, so
	// cancelling it (presbench -timeout, SIGINT) winds the whole run
	// down cooperatively with partial results intact. Nil means no
	// bound.
	Ctx context.Context
	// Processors models the production machine; the paper's testbed was
	// an 8-core, most experiments shown at 4. Default 4.
	Processors int
	// WorldSeed seeds the virtual syscall layer. Default 1.
	WorldSeed int64
	// SeedBudget bounds the production-seed search per bug. Default 2000.
	SeedBudget int
	// MaxAttempts is the replay budget (the paper's 1000). Default 1000.
	MaxAttempts int
	// Scale is the workload scale knob passed to programs (0 = each
	// program's default).
	Scale int
	// MaxSteps bounds each execution. Default 300000.
	MaxSteps uint64
	// OverheadScale sizes the workloads of the overhead/log-size
	// experiments (E2/E3/E7), which run the *patched* programs on long
	// production-like workloads. Default 800.
	OverheadScale int
	// Jobs is the harness's own cell-level parallelism (presbench -j):
	// experiment matrices fan their independent (app, scheme, bug,
	// procs) cells out to this many workers, committing results in
	// canonical cell order so tables are byte-identical at any value.
	// 0 means GOMAXPROCS; 1 runs cells sequentially. When Trace is set
	// the harness forces sequential cells so the JSONL event stream
	// keeps its documented canonical order.
	Jobs int
	// Workers sizes the replayer's work-stealing attempt pool for every
	// search the harness runs. 0 keeps the sequential (deterministic)
	// search.
	Workers int
	// Metrics, when non-nil, receives metrics from every recording and
	// replay the harness performs, plus per-experiment wall-time spans.
	// Nil disables collection at zero cost.
	Metrics *obs.Registry
	// Trace, when non-nil, receives every replay attempt's structured
	// event across all experiments.
	Trace *obs.TraceSink
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// record and replay are the harness's only paths into core: every
// recording and every search runs under the config context.
func (c Config) record(prog *appkit.Program, opts core.Options) *core.Recording {
	return core.RecordContext(c.ctx(), prog, opts)
}

func (c Config) replay(prog *appkit.Program, rec *core.Recording, ropts core.ReplayOptions) *core.ReplayResult {
	return core.ReplayContext(c.ctx(), prog, rec, ropts)
}

func (c Config) processors() int {
	if c.Processors <= 0 {
		return 4
	}
	return c.Processors
}

func (c Config) jobs() int {
	if c.Trace != nil {
		// Cross-cell trace events have no canonical interleaving; keep
		// the stream deterministic rather than fast.
		return 1
	}
	if c.Jobs == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(c.Jobs, 1)
}

func (c Config) worldSeed() int64 {
	if c.WorldSeed == 0 {
		return 1
	}
	return c.WorldSeed
}

func (c Config) seedBudget() int {
	if c.SeedBudget <= 0 {
		return 2000
	}
	return c.SeedBudget
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 1000
	}
	return c.MaxAttempts
}

func (c Config) maxSteps() uint64 {
	if c.MaxSteps == 0 {
		return 300_000
	}
	return c.MaxSteps
}

func (c Config) overheadScale() int {
	if c.OverheadScale <= 0 {
		return 800
	}
	return c.OverheadScale
}

// overheadOptions configures the production-workload runs of E2/E3/E7:
// patched programs (bugs do not cut the run short), scaled-up
// workloads, and a step bound sized for them.
func (c Config) overheadOptions(scheme sketch.Scheme, scheduleSeed int64) core.Options {
	o := c.options(scheme, scheduleSeed)
	o.FixBugs = true
	o.Scale = c.overheadScale()
	o.MaxSteps = 5_000_000
	return o
}

func (c Config) options(scheme sketch.Scheme, scheduleSeed int64) core.Options {
	return core.Options{
		Scheme:       scheme,
		Processors:   c.processors(),
		ScheduleSeed: scheduleSeed,
		WorldSeed:    c.worldSeed(),
		Scale:        c.Scale,
		MaxSteps:     c.maxSteps(),
		Metrics:      c.Metrics,
	}
}

// replayOptions builds the standard feedback-replay options for one
// bug's search, wired to the harness's observability sinks.
func (c Config) replayOptions(bugID string) core.ReplayOptions {
	return core.ReplayOptions{
		Feedback:    true,
		MaxAttempts: c.maxAttempts(),
		Oracle:      core.MatchBugID(bugID),
		Workers:     c.Workers,
		Metrics:     c.Metrics,
		Trace:       c.Trace,
	}
}

// timeExperiment opens an experiment-scoped span: it counts the run in
// pres_harness_experiments_total{exp} and times it into
// pres_harness_experiment_seconds{exp}. Use as
// `defer cfg.timeExperiment("e1")()`.
func (c Config) timeExperiment(exp string) func() {
	if c.Metrics == nil {
		return func() {}
	}
	c.Metrics.Counter("pres_harness_experiments_total", "exp", exp).Inc()
	sp := c.Metrics.Timer("pres_harness_experiment_seconds", "exp", exp).Start()
	return func() { sp.Stop() }
}

// FindBuggySeed searches production schedule seeds until prog manifests
// the target bug under the given scheme, returning the seed and its
// recording. The search is deterministic: seed 0, 1, 2, ...
func FindBuggySeed(prog *appkit.Program, bugID string, scheme sketch.Scheme, cfg Config) (int64, *core.Recording, error) {
	oracle := core.MatchBugID(bugID)
	for seed := int64(0); seed < int64(cfg.seedBudget()); seed++ {
		if err := cfg.ctx().Err(); err != nil {
			return -1, nil, err
		}
		rec := cfg.record(prog, cfg.options(scheme, seed))
		if f := rec.BugFailure(); f != nil && oracle(f) {
			return seed, rec, nil
		}
	}
	return -1, nil, fmt.Errorf("harness: %s did not manifest in %d production seeds", bugID, cfg.seedBudget())
}

// FindCleanSeed searches production seeds until prog completes without
// any failure — the workload used for overhead measurements, where the
// run must represent steady-state production service.
func FindCleanSeed(prog *appkit.Program, cfg Config) (int64, error) {
	for seed := int64(0); seed < int64(cfg.seedBudget()); seed++ {
		if err := cfg.ctx().Err(); err != nil {
			return -1, err
		}
		rec := cfg.record(prog, cfg.options(sketch.BASE, seed))
		if rec.Result.Failure == nil {
			return seed, nil
		}
	}
	return -1, fmt.Errorf("harness: %s never ran cleanly in %d seeds", prog.Name, cfg.seedBudget())
}

// ReproduceBug runs the full PRES pipeline for one bug under one scheme:
// find a buggy production seed, record, replay to reproduction.
func ReproduceBug(bugID string, scheme sketch.Scheme, cfg Config) (*core.Recording, *core.ReplayResult, error) {
	prog, ok := apps.ProgramForBug(bugID)
	if !ok {
		return nil, nil, fmt.Errorf("harness: unknown bug %q", bugID)
	}
	_, rec, err := FindBuggySeed(prog, bugID, scheme, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := cfg.replay(prog, rec, cfg.replayOptions(bugID))
	return rec, res, nil
}
