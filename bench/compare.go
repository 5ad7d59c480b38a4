package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readReports reads a result file written with -out: one report per
// line, any number of runs and workloads.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

type seriesKey struct{ workload, metric string }

func series(reps []report) map[seriesKey][]float64 {
	out := map[seriesKey][]float64{}
	for _, r := range reps {
		if r.Error != "" {
			continue
		}
		for _, m := range []map[string]metricValue{r.Metrics, r.Unbounded} {
			for name, v := range m {
				k := seriesKey{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
	}
	return out
}

// spread is the interquartile range of a metric's runs as a share of
// their median; NaN with fewer than two runs.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return math.NaN()
	}
	q := quantiles(vals, 4)
	return (q[2] - q[0]) / math.Abs(median(vals))
}

// verdict compares medians a (baseline) and b against the metric's bound.
// A spread wider than the bound leaves the comparison unresolved: the
// runs cannot tell a change of that size from noise.
func verdict(d metricDef, a, b, spreadA, spreadB float64) (change float64, v string) {
	change = (b - a) / math.Abs(a)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case d.Bound == 0:
		return change, "-"
	case spreadA > d.Bound || spreadB > d.Bound:
		return change, "unresolved"
	case change > d.Bound:
		return change, "worse"
	case change < -d.Bound:
		return change, "better"
	}
	return change, "agree"
}

// compareFiles prints, per (workload, metric) present in both files,
// both medians, their spreads and the verdict. Change is signed so that
// positive is worse. It exits 1 when any bounded metric got worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	ra, err := readReports(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	rb, err := readReports(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	sa, sb := series(ra), series(rb)
	var keys []seriesKey
	for k := range sa {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-18s %-30s %5s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "median_a", "median_b", "change", "iqr_a", "iqr_b", "bound", "verdict")
	worse := 0
	for _, k := range keys {
		d, ok := findMetric(k.metric)
		if !ok {
			continue
		}
		a, b := sa[k], sb[k]
		spA, spB := spread(a), spread(b)
		change, v := verdict(d, median(a), median(b), spA, spB)
		if v == "worse" {
			worse++
		}
		fmt.Fprintf(stdout, "%-18s %-30s %2d/%-2d %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %6.0f%%  %s\n",
			k.workload, k.metric, len(a), len(b), median(a), median(b), 100*change, 100*spA, 100*spB, 100*d.Bound, v)
	}
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "bench: the files share no (workload, metric) pair")
		return 2
	}
	if worse > 0 {
		return 1
	}
	return 0
}
