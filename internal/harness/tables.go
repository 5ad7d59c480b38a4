package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// PrintE1 renders the bug-reproduction table (bugs x schemes, cells are
// replay attempts; ">N" marks budget exhaustion).
func PrintE1(w io.Writer, rows []E1Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	schemes := schemeOrder(rows)
	fmt.Fprint(tw, "bug\ttype")
	for _, s := range schemes {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	byBug := map[string]map[sketch.Scheme]E1Row{}
	var order []string
	for _, r := range rows {
		if byBug[r.Bug.ID] == nil {
			byBug[r.Bug.ID] = map[sketch.Scheme]E1Row{}
			order = append(order, r.Bug.ID)
		}
		byBug[r.Bug.ID][r.Scheme] = r
	}
	for _, id := range order {
		cells := byBug[id]
		var any E1Row
		for _, c := range cells {
			any = c
		}
		fmt.Fprintf(tw, "%s\t%s", id, any.Bug.Type)
		for _, s := range schemes {
			r, ok := cells[s]
			switch {
			case !ok:
				fmt.Fprint(tw, "\t-")
			case r.Err != nil:
				fmt.Fprint(tw, "\tn/a")
			case !r.Reproduced:
				fmt.Fprintf(tw, "\t>%d", cfg.maxAttempts())
			default:
				fmt.Fprintf(tw, "\t%d", r.Attempts)
			}
		}
		fmt.Fprintln(tw)
	}
}

// PrintE2 renders the recording-overhead table (apps x schemes, cells
// are percent slowdown).
func PrintE2(w io.Writer, rows []E2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	schemes := schemeOrderE2(rows)
	fmt.Fprint(tw, "app\tcategory")
	for _, s := range schemes {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	byApp := map[string]map[sketch.Scheme]E2Row{}
	var order []string
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[sketch.Scheme]E2Row{}
			order = append(order, r.App)
		}
		byApp[r.App][r.Scheme] = r
	}
	for _, app := range order {
		cells := byApp[app]
		var any E2Row
		for _, c := range cells {
			any = c
		}
		fmt.Fprintf(tw, "%s\t%s", app, any.Category)
		for _, s := range schemes {
			r, ok := cells[s]
			if !ok || r.Err != nil {
				fmt.Fprint(tw, "\tn/a")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f%%", r.Overhead*100)
		}
		fmt.Fprintln(tw)
	}
}

// PrintE3 renders the log-size table.
func PrintE3(w io.Writer, rows []E3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "app\tscheme\tsketch bytes\tinput bytes\tbytes/kop")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\tn/a\tn/a\n", r.App, r.Scheme)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\n", r.App, r.Scheme, r.SketchBytes, r.InputBytes, r.BytesPerKop)
	}
}

// PrintE4 renders the scalability sweep.
func PrintE4(w io.Writer, rows []E4Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "procs\tbug\toverhead(SYNC)\tattempts")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%d\t%s\tn/a\tn/a\n", r.Procs, r.Bug)
			continue
		}
		att := fmt.Sprintf("%d", r.Attempts)
		if !r.Repro {
			att = fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		fmt.Fprintf(tw, "%d\t%s\t%.2f%%\t%s\n", r.Procs, r.Bug, r.Overhead*100, att)
	}
}

// PrintE5 renders the feedback ablation.
func PrintE5(w io.Writer, rows []E5Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\twith feedback\twithout feedback")
	cell := func(n int, ok bool) string {
		if !ok {
			return fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		return fmt.Sprintf("%d", n)
	}
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\tn/a\tn/a\n", r.Bug)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Bug,
			cell(r.WithFeedback, r.WithFeedbackOK),
			cell(r.WithoutFeedback, r.WithoutFeedbackOK))
	}
}

// PrintE6 renders the determinism check.
func PrintE6(w io.Writer, rows []E6Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tattempts to 1st repro\tre-replays\tall reproduced")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\tn/a\t-\t-\n", r.Bug)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\n", r.Bug, r.Attempts, r.Replays, r.AllRepro)
	}
}

// PrintE7 renders the overhead-reduction factors and the headline max.
func PrintE7(w io.Writer, rows []E7Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tscheme\treduction vs RW")
	best := E7Row{}
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\n", r.App, r.Scheme)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0fx\n", r.App, r.Scheme, r.Reduction)
		if r.Reduction > best.Reduction && (r.Scheme == sketch.SYNC || r.Scheme == sketch.SYS) {
			best = r
		}
	}
	tw.Flush()
	if best.App != "" {
		fmt.Fprintf(w, "\nheadline: %s sketching on %s records %.0fx cheaper than RW (paper: up to 4416x)\n",
			best.Scheme, best.App, best.Reduction)
	}
}

// PrintE8 renders the replay-cost statistics.
func PrintE8(w io.Writer, rows []E8Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tattempts\tflips\traces seen\tdivergences\tclean runs\treproduced")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\tn/a\t-\t-\t-\t-\t-\n", r.Bug)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Bug, r.Attempts, r.Flips, r.RacesSeen, r.Divergences, r.CleanRuns, r.Reproduced)
	}
}

func schemeOrder(rows []E1Row) []sketch.Scheme {
	seen := map[sketch.Scheme]bool{}
	for _, r := range rows {
		seen[r.Scheme] = true
	}
	var out []sketch.Scheme
	for _, s := range sketch.All() {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}

func schemeOrderE2(rows []E2Row) []sketch.Scheme {
	seen := map[sketch.Scheme]bool{}
	for _, r := range rows {
		seen[r.Scheme] = true
	}
	var out []sketch.Scheme
	for _, s := range sketch.All() {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// PrintE9 renders the sketch-truncation sweep.
func PrintE9(w io.Writer, rows []E9Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tretained%\tattempts")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%d\tn/a\n", r.Bug, r.Retained)
			continue
		}
		att := fmt.Sprintf("%d", r.Attempts)
		if !r.Reproduced {
			att = fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Bug, r.Retained, att)
	}
}

// PrintE10 renders the pattern matrix.
func PrintE10(w io.Writer, rows []E10Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "pattern\tclass\tscheme\tattempts")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\t%s\tn/a\n", r.Pattern, r.Class, r.Scheme)
			continue
		}
		att := fmt.Sprintf("%d", r.Attempts)
		if !r.Reproduced {
			att = fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.Pattern, r.Class, r.Scheme, att)
	}
}

// PrintE11 renders the work-stealing scaling sweep: wall-clock per
// pool size, with speedups quoted against each bug's workers=1
// search.
func PrintE11(w io.Writer, rows []E11Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tworkers\tattempts\twall ms\tspeedup\thandoffs/step\tfast steps")
	base := map[string]float64{}
	for _, r := range rows {
		if r.Err == nil && r.Workers == 1 {
			base[r.Bug] = r.WallMS
		}
	}
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%d\tn/a\t-\t-\t-\t-\n", r.Bug, r.Workers)
			continue
		}
		att := fmt.Sprintf("%d", r.Attempts)
		if !r.Reproduced {
			att = fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		speedup := "-"
		if b, ok := base[r.Bug]; ok && r.WallMS > 0 {
			speedup = fmt.Sprintf("%.2fx", b/r.WallMS)
		}
		hps := "-"
		if r.Steps > 0 {
			hps = fmt.Sprintf("%.3f", float64(r.Handoffs)/float64(r.Steps))
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.2f\t%s\t%s\t%d\n",
			r.Bug, r.Workers, att, r.WallMS, speedup, hps, r.FastSteps)
	}
}

// PrintE13 renders the epoch-ring sweep: per bug, the baseline row
// ("off") then one row per epoch length.
func PrintE13(w io.Writer, rows []E13Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tepoch steps\tepochs\tevicted\tcheckpoints\twindow entries\twindow bytes\tattempts")
	for _, r := range rows {
		es := "off"
		if r.EpochSteps > 0 {
			es = fmt.Sprintf("%d", r.EpochSteps)
		}
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\t-\t-\t-\t-\t-\n", r.Bug, es)
			continue
		}
		att := fmt.Sprintf("%d", r.Attempts)
		if !r.Reproduced {
			att = fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		epochs := "-"
		if r.EpochSteps > 0 {
			epochs = fmt.Sprintf("%d", r.Epochs)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			r.Bug, es, epochs, r.Evicted, r.Checkpoints, r.WindowEntries, r.WindowBytes, att)
	}
}

// PrintMetrics renders a metric snapshot as a table — the aggregate
// observability view presbench appends after its experiment tables
// when metrics capture is enabled. Histograms are summarized as
// count/sum/mean; the full bucket data is in the JSON snapshot.
func PrintMetrics(w io.Writer, snap obs.Snapshot) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "metric\ttype\tvalue")
	for _, k := range sortedKeys(snap.Counters) {
		fmt.Fprintf(tw, "%s\tcounter\t%d\n", k, snap.Counters[k])
	}
	for _, k := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(tw, "%s\tgauge\t%g\n", k, snap.Gauges[k])
	}
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Fprintf(tw, "%s\thistogram\tcount=%d sum=%g mean=%g\n", k, h.Count, h.Sum, mean)
	}
}

// sortedKeys returns the map's keys in ascending order, for the
// deterministic rendering every harness table guarantees.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
