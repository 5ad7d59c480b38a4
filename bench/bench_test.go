package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the root BENCHMARK.json: the contract the printed
// metrics must keep to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode is the drift guard between BENCHMARK.json
// and the metric and workload tables the code prints from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bf.Workloads), len(specs))
	}
	for i, sp := range specs {
		if f := bf.Workloads[i]; f.Name != sp.name || f.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, f.Name, f.Why, sp.name, sp.why)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			f, c := file[i], code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better || f.Bound != c.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, f, c)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestQuantilesMatchPython pins quantiles to statistics.quantiles'
// default method, which the printed spreads are checked with.
func TestQuantilesMatchPython(t *testing.T) {
	got := quantiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 4)
	want := []float64{2.75, 5.5, 8.25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantiles = %v, want %v", got, want)
		}
	}
	// The exclusive method extrapolates past the largest sample.
	if p90 := quantiles([]float64{1, 2, 3, 4, 5}, 10)[8]; p90 != 5.4 {
		t.Fatalf("p90 of 1..5 = %v, want 5.4", p90)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at -quick size, untraced and traced, and
// checks the contract of the last output line: every metric of
// BENCHMARK.json printed with its unit, no correctness gate fired, and
// -compare reading back what -out wrote.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	results := filepath.Join(t.TempDir(), "results.jsonl")
	for _, sp := range specs {
		for _, traced := range []string{"0", "1"} {
			args := []string{"-workload", sp.name, "-seed", "1", "-seconds", "0.2", "-quick", "-trace", traced}
			if traced == "0" {
				args = append(args, "-out", results)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", sp.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := bf.EndToEnd
			if traced == "1" {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json lists %d", sp.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if !metricName.MatchString(d.Name) {
					t.Errorf("metric name %q", d.Name)
				}
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present=%v), want unit %s", sp.name, traced, d.Name, got, ok, d.Unit)
				}
				if traced == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.Name, got.Value)
				}
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", results, results}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare of a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "op_ms_p50") {
		t.Errorf("compare output lacks op_ms_p50:\n%s", stdout.String())
	}
}
