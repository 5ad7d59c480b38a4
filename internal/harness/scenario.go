package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/scenario"
)

// scenarioConfig maps the harness run configuration onto the scenario
// package's knobs. Zero fields fall through to scenario's own defaults
// — notably the 400-seed budget rather than the harness's 2000-seed
// corpus budget: generated programs are small, and their template bugs
// are reachable quickly or not at all.
func (c Config) scenarioConfig() scenario.Config {
	return scenario.Config{
		Ctx:         c.Ctx,
		Processors:  c.Processors,
		MaxAttempts: c.MaxAttempts,
		Metrics:     c.Metrics,
	}
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
// and aggregates the ground-truth outcomes per template (E12, an
// extension beyond the paper). Seeds fan out to cfg's pool.
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
