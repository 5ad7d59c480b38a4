package harness

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/sketch"
)

func TestPoolRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, max(n, 1))
			if err := NewPool(workers, "test", nil).Run(context.Background(), n, func(i int) {
				hits[i].Add(1)
			}); err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			for i := 0; i < n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: cell %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestPoolMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if err := NewPool(4, "e2", reg).Run(context.Background(), 10, func(int) {}); err != nil {
		t.Fatalf("err = %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`pres_harness_cells_total{exp="e2"}`]; got != 10 {
		t.Fatalf("cells_total = %d, want 10 (counters: %v)", got, snap.Counters)
	}
	if got := snap.Gauges["pres_harness_workers_active"]; got != 0 {
		t.Fatalf("workers_active = %v after Run returned, want 0", got)
	}
}

func TestConfigJobs(t *testing.T) {
	if got := (Config{}).jobs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default jobs = %d, want GOMAXPROCS", got)
	}
	if got := (Config{Jobs: 3}).jobs(); got != 3 {
		t.Fatalf("jobs = %d, want 3", got)
	}
	if got := (Config{Jobs: -5}).jobs(); got != 1 {
		t.Fatalf("negative jobs = %d, want 1", got)
	}
	// A trace sink has no canonical cross-cell event order; the harness
	// must force sequential cells.
	var sink bytes.Buffer
	if got := (Config{Jobs: 8, Trace: obs.NewTraceSink(&sink)}).jobs(); got != 1 {
		t.Fatalf("jobs with trace = %d, want 1", got)
	}
}

// TestJobsDeterminism is the tentpole's contract: the same experiment
// run at -j 1, -j 4 and -j GOMAXPROCS must produce byte-identical
// rendered tables (and DeepEqual rows), because every cell derives its
// trajectory from its own identity, never from worker scheduling.
func TestJobsDeterminism(t *testing.T) {
	jobsValues := []int{1, 4, runtime.GOMAXPROCS(0)}

	cfg := fastCfg
	cfg.OverheadScale = 120
	schemes := []sketch.Scheme{sketch.SYNC, sketch.RW}

	var e2Rows [][]E2Row
	var e2Tables [][]byte
	for _, j := range jobsValues {
		c := cfg
		c.Jobs = j
		rows := RunE2(schemes, c)
		var buf bytes.Buffer
		PrintE2(&buf, rows)
		e2Rows = append(e2Rows, rows)
		e2Tables = append(e2Tables, buf.Bytes())
	}
	for i := 1; i < len(jobsValues); i++ {
		if !reflect.DeepEqual(e2Rows[0], e2Rows[i]) {
			t.Errorf("E2 rows differ between -j %d and -j %d", jobsValues[0], jobsValues[i])
		}
		if !bytes.Equal(e2Tables[0], e2Tables[i]) {
			t.Errorf("E2 table bytes differ between -j %d and -j %d:\n%s\nvs\n%s",
				jobsValues[0], jobsValues[i], e2Tables[0], e2Tables[i])
		}
	}

	var e8Rows [][]E1Row
	var e8Tables [][]byte
	for _, j := range jobsValues {
		c := cfg
		c.Jobs = j
		rows := RunE1([]sketch.Scheme{sketch.SYNC}, c)
		var buf bytes.Buffer
		PrintE8(&buf, rows)
		e8Rows = append(e8Rows, rows)
		e8Tables = append(e8Tables, buf.Bytes())
	}
	for i := 1; i < len(jobsValues); i++ {
		if !reflect.DeepEqual(e8Rows[0], e8Rows[i]) {
			t.Errorf("E8 rows differ between -j %d and -j %d", jobsValues[0], jobsValues[i])
		}
		if !bytes.Equal(e8Tables[0], e8Tables[i]) {
			t.Errorf("E8 table bytes differ between -j %d and -j %d", jobsValues[0], jobsValues[i])
		}
	}
}

func TestPoolCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if err := NewPool(4, "test", nil).Run(ctx, 10, func(i int) { ran++ }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d cells ran under a dead context", ran)
	}
}

func TestHarnessCancelledContextStopsSeedSearch(t *testing.T) {
	// Config.Ctx threads down to every harness loop: a dead context ends
	// the seed search on its first iteration with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fastCfg
	cfg.Ctx = ctx
	prog, _ := apps.Get("fft")
	if _, _, err := FindBuggySeed(prog, "fft-barrier", sketch.SYNC, cfg); err != context.Canceled {
		t.Fatalf("FindBuggySeed err = %v, want context.Canceled", err)
	}
}

// TestPoolStress hammers one pool with many more cells than workers;
// under -race (the Makefile stress target) this is the concurrency
// gate for the dispatch index and the per-slot commit discipline.
func TestPoolStress(t *testing.T) {
	const n = 10_000
	reg := obs.NewRegistry()
	out := make([]int, n)
	if err := NewPool(2*runtime.GOMAXPROCS(0), "stress", reg).Run(context.Background(), n, func(i int) {
		out[i] = i * i
	}); err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	if got := reg.Snapshot().Counters[`pres_harness_cells_total{exp="stress"}`]; got != n {
		t.Fatalf("cells_total = %d, want %d", got, n)
	}
}

// TestMetricsDeterministicAcrossJobs: the aggregate metrics snapshot
// (counter totals, not timings) must not depend on -j either.
func TestMetricsDeterministicAcrossJobs(t *testing.T) {
	cfg := fastCfg
	cfg.OverheadScale = 80
	schemes := []sketch.Scheme{sketch.SYNC}
	counts := func(jobs int) map[string]uint64 {
		c := cfg
		c.Jobs = jobs
		c.Metrics = obs.NewRegistry()
		RunE2(schemes, c)
		return c.Metrics.Snapshot().Counters
	}
	seq := counts(1)
	par := counts(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("counter totals differ across -j:\nseq: %v\npar: %v", seq, par)
	}
}
