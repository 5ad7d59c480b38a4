package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/scenario"
)

// scenarioConfig maps the harness run configuration onto the scenario
// package's knobs. Zero fields fall through to scenario's own defaults
// — notably the 400-seed cell budget rather than the harness's
// 2000-seed corpus budget: matrix cells and generated programs are
// small, and their declared outcomes are reachable quickly or not at
// all.
func (c Config) scenarioConfig() scenario.Config {
	return scenario.Config{
		Ctx:         c.Ctx,
		Processors:  c.Processors,
		MaxAttempts: c.MaxAttempts,
		Metrics:     c.Metrics,
	}
}

// E12Row is one driven cell of the failure-injection matrix (E12, an
// extension beyond the paper): an (app, failure class) pair with its
// declared outcome, driven through record, replay and captured-order
// reproduction.
type E12Row struct {
	scenario.CellResult
}

// RunE12 drives the full injection matrix: every corpus app under
// every failure class, each cell searched to its declared outcome and
// replayed to reproduction, plus the epoch-ring variants of the crash
// and lock-wedge cells (bounded recording, checkpointed replay). Cells
// fan out to cfg's pool; rows commit in canonical (app, class) order.
func RunE12(cfg Config) []E12Row {
	defer cfg.timeExperiment("e12")()
	cells := append(scenario.Matrix(), scenario.Variants()...)
	sc := cfg.scenarioConfig()
	return runCells(cfg, "e12", len(cells), func(i int) E12Row {
		return E12Row{scenario.RunCell(cells[i], sc)}
	})
}

// E12GenRow aggregates the generator sweep for one bug template.
type E12GenRow struct {
	Template string
	// Programs generated with this template; Reproduced of them met
	// their full ground truth (buggy manifested and replayed to
	// reproduction, patched variant held clean).
	Programs   int
	Reproduced int
	// MeanAttempts averages the replay attempts over reproduced
	// programs.
	MeanAttempts float64
	// FailSeeds lists seeds whose verification failed (presgen
	// -minimize turns one into a readable repro).
	FailSeeds []uint64
}

// RunE12Gen verifies generated programs for seeds 0..n-1 (default 50)
// and aggregates the ground-truth outcomes per template — the
// generator half of E12. Seeds fan out to cfg's pool.
func RunE12Gen(n int, cfg Config) []E12GenRow {
	defer cfg.timeExperiment("e12gen")()
	if n <= 0 {
		n = 50
	}
	sc := cfg.scenarioConfig()
	results := runCells(cfg, "e12gen", n, func(i int) scenario.VerifyResult {
		return scenario.Verify(scenario.Generate(uint64(i)), sc)
	})
	byTpl := map[string]*E12GenRow{}
	rows := make([]E12GenRow, 0, len(scenario.Templates()))
	for _, tpl := range scenario.Templates() {
		rows = append(rows, E12GenRow{Template: tpl})
		byTpl[tpl] = &rows[len(rows)-1]
	}
	for _, r := range results {
		agg, ok := byTpl[r.Template]
		if !ok {
			continue
		}
		agg.Programs++
		if r.OK() {
			agg.Reproduced++
			agg.MeanAttempts += float64(r.Attempts)
		} else {
			agg.FailSeeds = append(agg.FailSeeds, r.Seed)
		}
	}
	for i := range rows {
		if rows[i].Reproduced > 0 {
			rows[i].MeanAttempts /= float64(rows[i].Reproduced)
		}
	}
	return rows
}

// PrintE12 renders the injection matrix as an app x class grid. Cells
// show the declared outcome and, for failure outcomes, the attempts
// the replay search needed; cells that missed their declaration print
// FAIL. Epoch-ring variant rows land in "<class>+ring" columns,
// appended only when variants were driven; apps without a variant for
// that class print "-".
func PrintE12(w io.Writer, rows []E12Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	cols := make([]string, 0, len(scenario.Classes())+2)
	for _, cl := range scenario.Classes() {
		cols = append(cols, cl.Name)
	}
	ringCols := map[string]bool{}
	for _, r := range rows {
		if r.EpochRing && !ringCols[r.Class] {
			ringCols[r.Class] = true
			cols = append(cols, r.Class+"+ring")
		}
	}
	fmt.Fprint(tw, "app")
	for _, col := range cols {
		fmt.Fprintf(tw, "\t%s", col)
	}
	fmt.Fprintln(tw)
	byApp := map[string]map[string]E12Row{}
	var order []string
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]E12Row{}
			order = append(order, r.App)
		}
		key := r.Class
		if r.EpochRing {
			key += "+ring"
		}
		byApp[r.App][key] = r
	}
	for _, app := range order {
		fmt.Fprint(tw, app)
		for _, col := range cols {
			r, ok := byApp[app][col]
			switch {
			case !ok:
				fmt.Fprint(tw, "\t-")
			case !r.OK():
				fmt.Fprint(tw, "\tFAIL")
			case r.Want == scenario.Clean:
				fmt.Fprint(tw, "\tclean")
			default:
				fmt.Fprintf(tw, "\t%s/%d", r.Want, r.Attempts)
			}
		}
		fmt.Fprintln(tw)
	}
}

// PrintE12Gen renders the generator-sweep aggregate.
func PrintE12Gen(w io.Writer, rows []E12GenRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "template\tprograms\treproduced\tmean attempts\tfailing seeds")
	for _, r := range rows {
		fails := "none"
		if len(r.FailSeeds) > 0 {
			fails = fmt.Sprint(r.FailSeeds)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%s\n", r.Template, r.Programs, r.Reproduced, r.MeanAttempts, fails)
	}
}
