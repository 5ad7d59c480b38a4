package harness

import (
	"fmt"
	"io"
	"slices"
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

// PrintE3 renders the log-size table from E2's rows: the same runs
// measure overhead and log size. bytes/kop is sketch bytes per thousand
// instrumented operations, the paper's log-growth-rate metric.
func PrintE3(w io.Writer, rows []E2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "app\tscheme\tsketch bytes\tinput bytes\tbytes/kop")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\tn/a\tn/a\n", r.App, r.Scheme)
			continue
		}
		perKop := 0.0
		if r.TotalOps > 0 {
			perKop = float64(r.SketchBytes) * 1000 / float64(r.TotalOps)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\n", r.App, r.Scheme, r.SketchBytes, r.InputBytes, perKop)
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

// PrintE7 renders, from E2's rows, how many times cheaper each sketch
// records than full RW recording on each application, and the headline
// maximum over SYNC and SYS. Without RW rows there is nothing to divide
// by, and it prints a one-line note instead.
func PrintE7(w io.Writer, rows []E2Row) {
	rw := map[string]float64{}
	hasRW := false
	for _, r := range rows {
		if r.Scheme == sketch.RW {
			rw[r.App] = r.Overhead
			hasRW = true
		}
	}
	if !hasRW {
		fmt.Fprintln(w, "E7 divides by RW's overhead: run it with RW among -schemes")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tscheme\treduction vs RW")
	var best E2Row
	bestReduction := 0.0
	for _, r := range rows {
		if r.Scheme == sketch.RW || r.Scheme == sketch.BASE {
			continue
		}
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\n", r.App, r.Scheme)
			continue
		}
		reduction := 0.0
		if r.Overhead > 0 {
			reduction = rw[r.App] / r.Overhead
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0fx\n", r.App, r.Scheme, reduction)
		if reduction > bestReduction && (r.Scheme == sketch.SYNC || r.Scheme == sketch.SYS) {
			best, bestReduction = r, reduction
		}
	}
	tw.Flush()
	if best.App != "" {
		fmt.Fprintf(w, "\nheadline: %s sketching on %s records %.0fx cheaper than RW (paper: up to 4416x)\n",
			best.Scheme, best.App, bestReduction)
	}
}

// PrintE8 renders the replay-cost statistics of E1's SYNC searches.
// Without SYNC rows it prints a one-line note instead.
func PrintE8(w io.Writer, rows []E1Row) {
	rows = slices.DeleteFunc(slices.Clone(rows), func(r E1Row) bool { return r.Scheme != sketch.SYNC })
	if len(rows) == 0 {
		fmt.Fprintln(w, "E8 reports E1's SYNC searches: run it with SYNC among -schemes")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tattempts\tflips\traces seen\tdivergences\tclean runs\treproduced")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\tn/a\t-\t-\t-\t-\t-\n", r.Bug.ID)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Bug.ID, r.Attempts, r.Flips, r.Stats.RacesSeen, r.Stats.Divergences, r.Stats.CleanRuns, r.Reproduced)
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

// PrintE13 renders the epoch-ring sweep: per bug, the baseline row
// ("off") then one row per epoch length.
func PrintE13(w io.Writer, rows []E13Row, cfg Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "bug\tepoch steps\tepochs\tevicted\tcheckpoints\twindow entries\twindow bytes\trecording bytes\tattempts\theadless attempts")
	attempts := func(n int, ok bool) string {
		if !ok {
			return fmt.Sprintf(">%d", cfg.maxAttempts())
		}
		return fmt.Sprintf("%d", n)
	}
	for _, r := range rows {
		es := "off"
		if r.EpochSteps > 0 {
			es = fmt.Sprintf("%d", r.EpochSteps)
		}
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\t%s\tn/a\t-\t-\t-\t-\t-\t-\t-\n", r.Bug, es)
			continue
		}
		epochs, headless := "-", "-"
		if r.EpochSteps > 0 {
			epochs = fmt.Sprintf("%d", r.Epochs)
			headless = attempts(r.HeadlessAttempts, r.HeadlessReproduced)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Bug, es, epochs, r.Evicted, r.Checkpoints, r.WindowEntries, r.WindowBytes,
			r.RecordingBytes, attempts(r.Attempts, r.Reproduced), headless)
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
