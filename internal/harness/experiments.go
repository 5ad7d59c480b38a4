package harness

import (
	"fmt"
	"time"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/patterns"
	"repro/internal/sketch"
)

// E1Row is one cell of the bug-reproduction table: replay attempts to
// reproduce one bug under one sketching mechanism.
type E1Row struct {
	Bug        apps.BugInfo
	Scheme     sketch.Scheme
	Seed       int64
	Attempts   int
	Flips      int
	Reproduced bool
	Stats      core.ReplayStats
	Err        error
}

// RunE1 reproduces every corpus bug under each given scheme (the
// paper's headline table). Pass nil schemes for the full set. Cells
// fan out to cfg's pool; rows come back in canonical (bug, scheme)
// order regardless of Jobs.
func RunE1(schemes []sketch.Scheme, cfg Config) []E1Row {
	defer cfg.timeExperiment("e1")()
	if schemes == nil {
		schemes = sketch.All()
	}
	bugs := apps.AllBugs()
	return runCells(cfg, "e1", len(bugs)*len(schemes), func(i int) E1Row {
		return runE1Cell(bugs[i/len(schemes)], schemes[i%len(schemes)], cfg)
	})
}

func runE1Cell(b apps.BugInfo, s sketch.Scheme, cfg Config) E1Row {
	row := E1Row{Bug: b, Scheme: s}
	prog, _ := apps.ProgramForBug(b.ID)
	seed, rec, err := FindBuggySeed(prog, b.ID, s, cfg)
	if err != nil {
		row.Err = err
		return row
	}
	row.Seed = seed
	res := cfg.replay(prog, rec, cfg.replayOptions(b.ID))
	row.Attempts = res.Attempts
	row.Flips = res.Flips
	row.Reproduced = res.Reproduced
	row.Stats = res.Stats
	return row
}

// E2Row is one cell of the recording-overhead figure: the modelled
// production-run overhead of one scheme on one application's clean
// workload.
type E2Row struct {
	App      string
	Category string
	Scheme   sketch.Scheme
	// Overhead is ExtraCost/BaseCost (0.25 == 25% slowdown).
	Overhead float64
	// Entries and TotalOps give the sketch density behind the overhead.
	Entries  int
	TotalOps uint64
	Seed     int64
	Err      error
}

// RunE2 measures recording overhead for every app x scheme on a clean
// production run. Because observers never influence scheduling, every
// scheme measures the exact same execution of each app, so the
// between-scheme ratios are exact.
func RunE2(schemes []sketch.Scheme, cfg Config) []E2Row {
	defer cfg.timeExperiment("e2")()
	if schemes == nil {
		schemes = sketch.All()
	}
	progs := apps.All()
	return runCells(cfg, "e2", len(progs)*len(schemes), func(i int) E2Row {
		p, s := progs[i/len(schemes)], schemes[i%len(schemes)]
		row := E2Row{App: p.Name, Category: p.Category, Scheme: s}
		rec := cfg.record(p, cfg.overheadOptions(s, 1))
		if f := rec.Result.Failure; f != nil {
			row.Err = f
		} else {
			row.Overhead = rec.Result.Overhead()
			row.Entries = rec.Sketch.Len()
			row.TotalOps = rec.Sketch.TotalOps
		}
		return row
	})
}

// E3Row is one cell of the log-size table.
type E3Row struct {
	App    string
	Scheme sketch.Scheme
	// SketchBytes is the encoded sketch log; InputBytes the input log
	// (charged to every scheme, including BASE).
	SketchBytes int
	InputBytes  int
	// BytesPerKop is sketch bytes per thousand instrumented operations
	// — the paper's log-growth-rate metric.
	BytesPerKop float64
	Err         error
}

// RunE3 measures log sizes for every app x scheme on the same clean
// runs as E2.
func RunE3(schemes []sketch.Scheme, cfg Config) []E3Row {
	defer cfg.timeExperiment("e3")()
	if schemes == nil {
		schemes = sketch.All()
	}
	progs := apps.All()
	return runCells(cfg, "e3", len(progs)*len(schemes), func(i int) E3Row {
		p, s := progs[i/len(schemes)], schemes[i%len(schemes)]
		row := E3Row{App: p.Name, Scheme: s}
		rec := cfg.record(p, cfg.overheadOptions(s, 1))
		if f := rec.Result.Failure; f != nil {
			row.Err = f
		} else {
			row.SketchBytes = sketch.EncodedSize(rec.Sketch)
			row.InputBytes = sketch.InputEncodedSize(rec.Inputs)
			if rec.Sketch.TotalOps > 0 {
				row.BytesPerKop = float64(row.SketchBytes) * 1000 / float64(rec.Sketch.TotalOps)
			}
		}
		return row
	})
}

// E4Row is one cell of the scalability figure: overhead and attempts at
// a given processor count.
type E4Row struct {
	Procs    int
	Bug      string
	Scheme   sketch.Scheme
	Overhead float64
	Attempts int
	Repro    bool
	Err      error
}

// E4Bugs is the default bug subset for the scalability sweep (one per
// category).
var E4Bugs = []string{"mysql-169", "pbzip2-order", "lu-atomicity"}

// RunE4 sweeps the processor count, measuring SYNC recording overhead
// on the bug's application and attempts-to-reproduce. More processors
// widen the unrecorded interleaving space; the paper's claim is that
// PRES's attempts stay low while BASE-style approaches blow up.
func RunE4(procs []int, bugs []string, cfg Config) []E4Row {
	defer cfg.timeExperiment("e4")()
	if procs == nil {
		procs = []int{1, 2, 4, 8, 16}
	}
	if bugs == nil {
		bugs = E4Bugs
	}
	return runCells(cfg, "e4", len(procs)*len(bugs), func(i int) E4Row {
		c := cfg
		c.Processors = procs[i/len(bugs)]
		bug := bugs[i%len(bugs)]
		row := E4Row{Procs: c.Processors, Bug: bug, Scheme: sketch.SYNC}
		_, res, err := ReproduceBug(bug, sketch.SYNC, c)
		if err != nil {
			row.Err = err
		} else {
			// Overhead is a production metric: measure it on the
			// app's long patched workload at this processor count.
			prog, _ := apps.ProgramForBug(bug)
			prod := c.record(prog, c.overheadOptions(sketch.SYNC, 1))
			row.Overhead = prod.Result.Overhead()
			row.Attempts = res.Attempts
			row.Repro = res.Reproduced
		}
		return row
	})
}

// E5Row is one cell of the feedback-ablation figure.
type E5Row struct {
	Bug               string
	WithFeedback      int
	WithFeedbackOK    bool
	WithoutFeedback   int
	WithoutFeedbackOK bool
	Err               error
}

// RunE5 compares feedback-directed search against random exploration of
// the same sketch-constrained space — the paper's "feedback generation
// is critical" result.
func RunE5(bugs []string, cfg Config) []E5Row {
	defer cfg.timeExperiment("e5")()
	if bugs == nil {
		for _, b := range apps.AllBugs() {
			bugs = append(bugs, b.ID)
		}
	}
	return runCells(cfg, "e5", len(bugs), func(i int) E5Row {
		bug := bugs[i]
		row := E5Row{Bug: bug}
		prog, _ := apps.ProgramForBug(bug)
		_, rec, err := FindBuggySeed(prog, bug, sketch.SYNC, cfg)
		if err != nil {
			row.Err = err
			return row
		}
		with := cfg.replay(prog, rec, cfg.replayOptions(bug))
		noFB := cfg.replayOptions(bug)
		noFB.Feedback = false
		without := cfg.replay(prog, rec, noFB)
		row.WithFeedback, row.WithFeedbackOK = with.Attempts, with.Reproduced
		row.WithoutFeedback, row.WithoutFeedbackOK = without.Attempts, without.Reproduced
		return row
	})
}

// E6Row is one row of the reproduce-every-time check.
type E6Row struct {
	Bug      string
	Attempts int // attempts to first reproduction
	Replays  int // captured-order replays performed
	AllRepro bool
	Err      error
}

// RunE6 verifies the paper's determinism claim: after the first
// successful replay, the captured full order reproduces the bug on
// every one of n re-executions.
func RunE6(bugs []string, n int, cfg Config) []E6Row {
	defer cfg.timeExperiment("e6")()
	if bugs == nil {
		for _, b := range apps.AllBugs() {
			bugs = append(bugs, b.ID)
		}
	}
	if n <= 0 {
		n = 100
	}
	return runCells(cfg, "e6", len(bugs), func(i int) E6Row {
		bug := bugs[i]
		row := E6Row{Bug: bug, Replays: n}
		prog, _ := apps.ProgramForBug(bug)
		rec, res, err := ReproduceBug(bug, sketch.SYNC, cfg)
		if err != nil {
			row.Err = err
			return row
		}
		row.Attempts = res.Attempts
		if !res.Reproduced {
			return row
		}
		row.AllRepro = true
		oracle := core.MatchBugID(bug)
		for r := 0; r < n; r++ {
			out := core.Reproduce(prog, rec, res.Order)
			if out.Failure == nil || !out.Failure.IsBug() || !oracle(out.Failure) {
				row.AllRepro = false
				break
			}
		}
		return row
	})
}

// E7Row is one row of the overhead-reduction headline: how many times
// cheaper each sketch is than full RW recording on one application.
type E7Row struct {
	App       string
	Scheme    sketch.Scheme
	Reduction float64 // RW overhead / scheme overhead
	Err       error
}

// RunE7 derives the paper's "up to 4416x lower overhead" headline from
// the E2 measurements.
func RunE7(cfg Config) []E7Row {
	defer cfg.timeExperiment("e7")()
	e2 := RunE2([]sketch.Scheme{sketch.SYNC, sketch.SYS, sketch.FUNC, sketch.BB, sketch.RW}, cfg)
	rw := map[string]float64{}
	for _, r := range e2 {
		if r.Scheme == sketch.RW {
			rw[r.App] = r.Overhead
		}
	}
	var rows []E7Row
	for _, r := range e2 {
		if r.Scheme == sketch.RW {
			continue
		}
		row := E7Row{App: r.App, Scheme: r.Scheme, Err: r.Err}
		if r.Err == nil && r.Overhead > 0 {
			row.Reduction = rw[r.App] / r.Overhead
		}
		rows = append(rows, row)
	}
	return rows
}

// E8Row summarizes the replay-time cost of reproducing one bug.
type E8Row struct {
	Bug         string
	Attempts    int
	Flips       int
	RacesSeen   int
	Divergences int
	CleanRuns   int
	Reproduced  bool
	Err         error
}

// RunE8 collects the replayer's search statistics for every bug under
// SYNC sketching.
func RunE8(cfg Config) []E8Row {
	defer cfg.timeExperiment("e8")()
	bugs := apps.AllBugs()
	return runCells(cfg, "e8", len(bugs), func(i int) E8Row {
		b := bugs[i]
		row := E8Row{Bug: b.ID}
		prog, ok := apps.ProgramForBug(b.ID)
		if !ok {
			row.Err = fmt.Errorf("harness: unknown bug %q", b.ID)
			return row
		}
		_, rec, err := FindBuggySeed(prog, b.ID, sketch.SYNC, cfg)
		if err != nil {
			row.Err = err
			return row
		}
		res := cfg.replay(prog, rec, cfg.replayOptions(b.ID))
		row.Attempts = res.Attempts
		row.Flips = res.Flips
		row.RacesSeen = res.Stats.RacesSeen
		row.Divergences = res.Stats.Divergences
		row.CleanRuns = res.Stats.CleanRuns
		row.Reproduced = res.Reproduced
		return row
	})
}

// E9Row is one cell of the sketch-truncation experiment (an extension
// beyond the paper): replay attempts when only the tail of the sketch
// log survives, as in bounded-storage deployments.
type E9Row struct {
	Bug        string
	Retained   int // percent of the sketch kept (100 = full)
	Attempts   int
	Reproduced bool
	Err        error
}

// E9Bugs is the default subset for the truncation sweep.
var E9Bugs = []string{"mysql-169", "openldap-deadlock", "lu-atomicity", "fft-barrier"}

// RunE9 sweeps the retained sketch fraction for a bug subset under SYNC.
func RunE9(bugs []string, fractions []int, cfg Config) []E9Row {
	defer cfg.timeExperiment("e9")()
	if bugs == nil {
		bugs = E9Bugs
	}
	if fractions == nil {
		fractions = []int{100, 50, 25, 10}
	}
	// The cell is the bug, not the (bug, fraction) pair: every fraction
	// replays the same recording, so splitting them would repeat the
	// seed search per fraction.
	perBug := runCells(cfg, "e9", len(bugs), func(i int) []E9Row {
		bug := bugs[i]
		prog, _ := apps.ProgramForBug(bug)
		_, rec, err := FindBuggySeed(prog, bug, sketch.SYNC, cfg)
		out := make([]E9Row, 0, len(fractions))
		for _, pct := range fractions {
			row := E9Row{Bug: bug, Retained: pct, Err: err}
			if err == nil {
				tail := 0 // 0 = full sketch, strictly enforced
				if pct < 100 {
					tail = max(1, rec.Sketch.Len()*pct/100)
				}
				ropts := cfg.replayOptions(bug)
				ropts.SketchTail = tail
				res := cfg.replay(prog, rec, ropts)
				row.Attempts = res.Attempts
				row.Reproduced = res.Reproduced
			}
			out = append(out, row)
		}
		return out
	})
	var rows []E9Row
	for _, r := range perBug {
		rows = append(rows, r...)
	}
	return rows
}

// E10Row is one cell of the bug-pattern matrix (extension): attempts to
// reproduce a canonical pattern under a scheme.
type E10Row struct {
	Pattern    string
	Class      string
	Scheme     sketch.Scheme
	Attempts   int
	Reproduced bool
	Err        error
}

// RunE10 reproduces every catalog pattern under each scheme. Patterns
// are one-shot programs, so the production sweep covers processor
// counts down to a loaded uniprocessor (preemption strands a thread
// mid-window, which is how these windows are hit in the wild).
func RunE10(schemes []sketch.Scheme, cfg Config) []E10Row {
	defer cfg.timeExperiment("e10")()
	if schemes == nil {
		schemes = []sketch.Scheme{sketch.SYNC, sketch.RW}
	}
	pats := patterns.All()
	return runCells(cfg, "e10", len(pats)*len(schemes), func(i int) E10Row {
		p, s := pats[i/len(schemes)], schemes[i%len(schemes)]
		// Build per cell: each worker gets its own program value.
		prog := p.Build()
		oracle := core.MatchBugID(p.BugID)
		row := E10Row{Pattern: p.Name, Class: p.Class, Scheme: s}
		var rec *core.Recording
		for _, procs := range []int{4, 1, 2} {
			for seed := int64(0); seed < int64(cfg.seedBudget()) && rec == nil; seed++ {
				r := cfg.record(prog, core.Options{
					Scheme:       s,
					Processors:   procs,
					Preempt:      0.05,
					ScheduleSeed: seed,
					WorldSeed:    cfg.worldSeed(),
					MaxSteps:     cfg.maxSteps(),
					Metrics:      cfg.Metrics,
				})
				if f := r.BugFailure(); f != nil && oracle(f) {
					rec = r
				}
			}
			if rec != nil {
				break
			}
		}
		if rec == nil {
			row.Err = fmt.Errorf("pattern %s never manifested", p.Name)
			return row
		}
		res := cfg.replay(prog, rec, cfg.replayOptions(p.BugID))
		row.Attempts = res.Attempts
		row.Reproduced = res.Reproduced
		return row
	})
}

// E13Row is one cell of the always-on-recording experiment (an
// extension beyond the paper): replay attempts and retained log size
// when production records into a bounded epoch ring with periodic
// checkpoints, swept over the epoch length. EpochSteps 0 is the
// whole-execution baseline (classic recording, replay from the start).
type E13Row struct {
	Bug        string
	EpochSteps uint64 // 0 = epoch recording off (baseline)
	// Ring shape of the recording: retained epochs, evicted epochs, and
	// surviving checkpoints. The replay starts from the newest
	// checkpoint; zero checkpoints (run too short to roll) makes the
	// checkpointed replay identical to the baseline.
	Epochs      int
	Evicted     uint64
	Checkpoints int
	// WindowEntries/WindowBytes size the retained sketch window — the
	// always-on deployment's storage bound for this epoch length.
	WindowEntries int
	WindowBytes   int
	Attempts      int
	Reproduced    bool
	Err           error
}

// E13Bugs is the default subset for the epoch sweep: bugs whose buggy
// runs live long enough to seal checkpoints (short-crash bugs leave an
// empty ring and reduce to the baseline row).
var E13Bugs = []string{"mysql-169", "fft-barrier", "pbzip2-order", "openldap-deadlock", "apache-25520"}

// RunE13 sweeps the epoch length for a bug subset under SYNC: each bug
// is seed-searched once, then re-recorded at the same seed with an
// epoch ring of the given capacity and checkpoint cadence (sealing
// never perturbs the interleaving, so the same seed manifests the same
// bug), and replayed from the newest checkpoint. Shorter epochs keep
// the retained window small and the search shallow; epochs longer than
// the run never roll, so the row degrades to whole-log replay.
func RunE13(bugs []string, lengths []uint64, ringSize, cpEvery int, cfg Config) []E13Row {
	defer cfg.timeExperiment("e13")()
	if bugs == nil {
		bugs = E13Bugs
	}
	if lengths == nil {
		lengths = []uint64{16, 32, 64}
	}
	if ringSize <= 0 {
		ringSize = 2
	}
	if cpEvery <= 0 {
		cpEvery = 1
	}
	// The cell is the bug: every epoch length replays a re-recording of
	// the same seed, so splitting cells would repeat the seed search.
	perBug := runCells(cfg, "e13", len(bugs), func(i int) []E13Row {
		bug := bugs[i]
		prog, _ := apps.ProgramForBug(bug)
		seed, rec, err := FindBuggySeed(prog, bug, sketch.SYNC, cfg)
		out := make([]E13Row, 0, len(lengths)+1)
		base := E13Row{Bug: bug, Err: err}
		if err == nil {
			base.WindowEntries = rec.Sketch.Len()
			base.WindowBytes = sketch.EncodedSize(rec.Sketch)
			res := cfg.replay(prog, rec, cfg.replayOptions(bug))
			base.Attempts, base.Reproduced = res.Attempts, res.Reproduced
		}
		out = append(out, base)
		for _, es := range lengths {
			row := E13Row{Bug: bug, EpochSteps: es, Err: err}
			if err != nil {
				out = append(out, row)
				continue
			}
			opts := cfg.options(sketch.SYNC, seed)
			opts.EpochRing = &core.EpochRingOptions{Steps: es, Size: ringSize, CheckpointEvery: cpEvery}
			erec := cfg.record(prog, opts)
			ring := erec.Epochs
			row.Epochs = len(ring.Epochs)
			row.Evicted = ring.Evicted
			row.Checkpoints = len(ring.Checkpoints)
			row.WindowEntries = erec.Sketch.Len()
			row.WindowBytes = sketch.EncodedSize(erec.Sketch)
			ropts := cfg.replayOptions(bug)
			ropts.FromCheckpoint = true
			res := cfg.replay(prog, erec, ropts)
			row.Attempts, row.Reproduced = res.Attempts, res.Reproduced
			out = append(out, row)
		}
		return out
	})
	var rows []E13Row
	for _, r := range perBug {
		rows = append(rows, r...)
	}
	return rows
}

// E11Row is one cell of the work-stealing-search scaling experiment (an
// extension beyond the paper): wall-clock to reproduce one bug at a
// given worker-pool size.
type E11Row struct {
	Bug        string
	Workers    int
	Attempts   int
	Reproduced bool
	// WallMS is the best-of-3 search wall time.
	WallMS float64
	// Steps, Handoffs, and FastSteps aggregate the search's
	// executed scheduler work (core.ReplayStats): Handoffs/Steps is the
	// search's grant amortization, FastSteps the steps committed
	// without a fresh pick.
	Steps     uint64
	Handoffs  uint64
	FastSteps uint64
	Err       error
}

// E11Bugs is the default subset for the scaling sweep: the two bugs
// whose searches are long enough for pool effects to matter.
var E11Bugs = []string{"mysql-169", "lu-atomicity"}

// RunE11 sweeps the replay worker-pool size for a bug subset under SYNC
// sketching: each (bug, workers) cell reports wall-clock (best of 3).
// Workers=1 is the sequential baseline the speedups in EXPERIMENTS.md
// are quoted against.
//
// Only the per-bug preparation (seed search + recording) runs on cfg's
// pool; the timed sweeps themselves are always sequential, because
// concurrent cells would contend for cores and corrupt the very
// wall-clock scaling the experiment measures.
func RunE11(bugs []string, workers []int, cfg Config) []E11Row {
	defer cfg.timeExperiment("e11")()
	if bugs == nil {
		bugs = E11Bugs
	}
	if workers == nil {
		workers = []int{1, 2, 4, 8}
	}
	type e11Prep struct {
		prog *appkit.Program
		rec  *core.Recording
		err  error
	}
	preps := runCells(cfg, "e11", len(bugs), func(i int) e11Prep {
		prog, ok := apps.ProgramForBug(bugs[i])
		if !ok {
			return e11Prep{err: fmt.Errorf("harness: unknown bug %q", bugs[i])}
		}
		_, rec, err := FindBuggySeed(prog, bugs[i], sketch.SYNC, cfg)
		return e11Prep{prog: prog, rec: rec, err: err}
	})
	var rows []E11Row
	for bi, bug := range bugs {
		prog, rec, err := preps[bi].prog, preps[bi].rec, preps[bi].err
		if prog == nil {
			rows = append(rows, E11Row{Bug: bug, Err: err})
			continue
		}
		for _, w := range workers {
			row := E11Row{Bug: bug, Workers: w, Err: err}
			if err != nil {
				rows = append(rows, row)
				continue
			}
			c := cfg
			c.Workers = w
			ropts := c.replayOptions(bug)
			var res *core.ReplayResult
			for i := 0; i < 3; i++ {
				start := time.Now()
				r := c.replay(prog, rec, ropts)
				if ms := float64(time.Since(start)) / float64(time.Millisecond); i == 0 || ms < row.WallMS {
					row.WallMS = ms
				}
				res = r
			}
			row.Attempts = res.Attempts
			row.Reproduced = res.Reproduced
			row.Steps = res.Stats.Steps
			row.Handoffs = res.Stats.Handoffs
			row.FastSteps = res.Stats.FastPathSteps
			rows = append(rows, row)
		}
	}
	return rows
}
