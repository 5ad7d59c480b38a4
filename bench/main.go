// Command bench is the repository's benchmark. It measures what PRES
// costs a user: how much recording slows a production run against the
// same run unrecorded, and how long diagnosis takes to reproduce a bug
// from a recording. A traced run adds a per-layer ledger that says
// where that time goes. README.md documents the workloads and metrics.
//
//	bench -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]
//	bench -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	quick   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	workload := fs.String("workload", "", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the record workloads' inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured window per workload, in seconds")
	traceFlag := fs.Int("trace", 0, "1 keeps spans and prints the per-layer ledger instead of the end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans to this file as JSON")
	out := fs.String("out", "", "append each workload's full result to this file, one JSON line per run")
	fs.BoolVar(&o.quick, "quick", false, "tiny input pools and a short window: a smoke test, not a measurement")
	compare := fs.Bool("compare", false, "compare the result files a.json and b.json given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	o.traced = *traceFlag == 1
	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if sp, ok := findSpec(*workload); ok {
		todo = []spec{sp}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q; one of:", *workload)
		for _, sp := range specs {
			fmt.Fprintf(stderr, " %s", sp.name)
		}
		fmt.Fprintln(stderr, ", all")
		return 2
	}

	// One closed-loop client; the only concurrency is the search pool of
	// diagnose-deep, which GOMAXPROCS caps at two processors.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	tr := newTracer()
	var reports []*report
	for _, sp := range todo {
		rep, err := runWorkload(sp, o, tr)
		var gate *gateError
		if errors.As(err, &gate) {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			rep = &report{Workload: sp.name, Seed: o.seed, Error: err.Error()}
		} else if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		rep.print(stdout)
		if *out != "" {
			if err := appendJSONLine(*out, rep); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		reports = append(reports, rep)
	}
	if o.traced && *spans != "" {
		if err := tr.writeSpans(*spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	final := finalLine(reports)
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one workload's full result: what the last line carries plus
// the distributions behind each timing and where the numbers came from.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Unbounded  map[string]metricValue `json:"unbounded,omitempty"`
	Timings    map[string]dist        `json:"timings"`
	Spans      []selfTime             `json:"spans,omitempty"`
	Error      string                 `json:"error,omitempty"`
}

type provenance struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	Pool       int     `json:"pool"`
	SetupReps  int     `json:"setup_reps"`
	WarmupOps  int     `json:"warmup_ops"`
	Ops        int     `json:"ops"`
	MeasuredS  float64 `json:"measured_s"`
	WallS      float64 `json:"wall_s"`
}

func hostProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// heldMiB is the memory the Go runtime holds from the OS: everything it
// has mapped, less the heap pages it has released back.
func heldMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median. Setup is deterministic in the seed, so every
// repetition must build the same inputs.
const setupReps = 5

// newWorkload builds sp's input pool from the seed and runs its warm-up:
// the first 5% of the pool's operations, untimed, each followed by a
// collection. Left to itself, the collector's pacer starts cold and
// sometimes lets the first large recordings overshoot the heap, which
// moved record-dense's peak_rss_mb between 20.5 and 25 MiB run to run;
// collecting through warm-up lets the pacer learn the live heap first.
func newWorkload(sp spec, o options) (workload, int, error) {
	if o.quick {
		sp.pairs = 2 * len(sp.apps)
		sp.perBug = min(sp.perBug, 2)
	}
	var w workload
	var err error
	if sp.bugs == nil {
		w, err = newRecordWorkload(sp, o.seed)
	} else {
		w, err = newDiagWorkload(sp.name, sp.bugs, sp.perBug, sp.workers)
	}
	if err != nil {
		return nil, 0, err
	}
	warm := max(1, w.size()/20)
	off := newTracer()
	for i := 0; i < warm; i++ {
		if _, err := w.op(i, off); err != nil {
			return nil, 0, err
		}
		runtime.GC()
	}
	return w, warm, nil
}

// endOfRun reports whether a run that has measured n operations in
// elapsed should stop: only at a whole number of periods, and at the
// period boundary nearest the end of the window, so runs on a fast and
// a slow host both cover whole passes and end close to the window.
func endOfRun(n, period int, elapsed, window time.Duration) bool {
	if n == 0 || n%period != 0 {
		return false
	}
	perPeriod := elapsed / time.Duration(n/period)
	return elapsed+perPeriod/2 >= window
}

func runWorkload(sp spec, o options, tr *tracer) (*report, error) {
	wall := time.Now()
	firstSpan := len(tr.spans)
	reps := setupReps
	if o.traced || o.quick {
		reps = 1
	}
	var w workload
	var warm int
	var setups []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		nw, nwarm, err := newWorkload(sp, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if w != nil && nw.fingerprint() != w.fingerprint() {
			return nil, gatef("setup built different inputs from the same seed")
		}
		w, warm = nw, nwarm
	}

	window := time.Duration(o.seconds * float64(time.Second))
	var samples []sample
	kept := map[int]bool{}
	start := time.Now()
	for i := warm; !endOfRun(len(samples), w.period(), time.Since(start), window); i++ {
		// A traced run keeps spans on every other pass, so the passes
		// without them measure what tracing costs.
		tr.on = o.traced && len(samples)/w.period()%2 == 1
		tr.op = i
		s, err := w.op(i, tr)
		if err != nil {
			return nil, err
		}
		s.traced = tr.on
		s.heldMB = heldMiB()
		// A captured order can be as long as its run; keep one per input,
		// and only for the ledger.
		if !o.traced || kept[i%w.size()] {
			s.order = nil
		}
		kept[i%w.size()] = true
		samples = append(samples, s)
	}
	measured := time.Since(start)

	rep := &report{Workload: sp.name, Seed: o.seed, Traced: o.traced, Correct: true, Timings: map[string]dist{}}
	values, defs := endToEndValues(samples, setups, rep.Timings), endToEnd
	if o.traced {
		tr.on = true
		tr.op = -1
		m, err := ledger(sp, w, samples, sizeFor(sp, o.quick), tr)
		if err != nil {
			return nil, err
		}
		values, defs = m, perLayer
		rep.Spans = tr.selfTimes(firstSpan)
	}
	rep.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if !o.traced {
		rep.Unbounded = map[string]metricValue{}
		for _, d := range unbounded {
			rep.Unbounded[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	}
	for _, s := range samples {
		rep.Attempted++
		if s.failed {
			rep.Failed++
		}
	}
	rep.Provenance = hostProvenance()
	rep.Provenance.Pool = w.size()
	rep.Provenance.SetupReps = reps
	rep.Provenance.WarmupOps = warm
	rep.Provenance.Ops = len(samples)
	rep.Provenance.MeasuredS = measured.Seconds()
	rep.Provenance.WallS = time.Since(wall).Seconds()
	return rep, nil
}

// endToEndValues computes the end-to-end metrics from the measured
// operations, and records the distribution behind each timing.
func endToEndValues(samples []sample, setups []float64, timings map[string]dist) map[string]float64 {
	var opMS, baseMS, slowdown, orderMS, heldMB []float64
	var opWall, baseWall time.Duration
	var steps, prodSteps uint64
	var logBytes int
	for _, s := range samples {
		opMS = append(opMS, ms(s.opWall))
		heldMB = append(heldMB, s.heldMB)
		baseMS = append(baseMS, ms(s.baseWall))
		slowdown = append(slowdown, float64(s.opWall)/float64(s.baseWall))
		if s.orderSteps > 0 {
			orderMS = append(orderMS, ms(s.orderWall))
		}
		opWall += s.opWall
		baseWall += s.baseWall
		steps += s.steps
		prodSteps += s.prodSteps
		logBytes += s.logBytes
	}
	op := summarize(opMS)
	timings["op_ms"] = op
	timings["unrecorded_ms"] = summarize(baseMS)
	timings["slowdown_per_op"] = summarize(slowdown)
	timings["setup_s"] = summarize(setups)
	if len(orderMS) > 0 {
		timings["order_replay_ms"] = summarize(orderMS)
	}
	return map[string]float64{
		"slowdown_x":          float64(opWall) / float64(baseWall),
		"steps_per_op":        float64(steps) / float64(len(samples)),
		"log_bytes_per_kstep": 1000 * float64(logBytes) / float64(prodSteps),
		"mem_mb_p50":          median(heldMB),
		"peak_rss_mb":         peakRSSMiB(),
		"setup_s":             median(setups),
		"op_ms_p50":           op.P50,
		"op_ms_p90":           op.P90,
		"steps_per_s":         float64(steps) / opWall.Seconds(),
	}
}

func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "== %s seed=%d traced=%v: %d ops (%d failed) in %.1f s measured, %.1f s wall\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, p.MeasuredS, p.WallS)
	if r.Error != "" {
		fmt.Fprintf(w, "   FAILED: %s\n", r.Error)
		return
	}
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s %s rev=%s modified=%v pool=%d warmup=%d setup_reps=%d\n",
		p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Platform, p.Revision, p.Modified, p.Pool, p.WarmupOps, p.SetupReps)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		label := ""
		if d.Name == "sketch.modelled_overhead" {
			label = "  (modelled, not measured)"
		}
		fmt.Fprintf(w, "   %-30s %14.4f %-8s%s\n", d.Name, v.Value, v.Unit, label)
	}
	for _, d := range unbounded {
		if v, ok := r.Unbounded[d.Name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %-8s  (no bound)\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, name := range []string{"op_ms", "unrecorded_ms", "slowdown_per_op", "order_replay_ms", "setup_s"} {
		if d, ok := r.Timings[name]; ok {
			fmt.Fprintf(w, "   %-16s n=%-6d q1=%-10.4g p50=%-10.4g q3=%-10.4g p90=%.4g\n", name, d.N, d.Q1, d.P50, d.Q3, d.P90)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "   %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range r.Spans {
			fmt.Fprintf(w, "   %-28s %8d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}
}

// finalLine is the machine-readable last line. For a single workload it
// carries that workload's metrics; for -workload all, each metric is
// prefixed with its workload's name.
func finalLine(reps []*report) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(reps) > 1 {
				name = r.Workload + ":" + name
			}
			res.Metrics[name] = v
		}
	}
	return res
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append result: %w", err)
	}
	return f.Close()
}
