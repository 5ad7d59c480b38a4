// Benchmarks for the allocation-lean recording pipeline: encoder
// throughput and density per scheme in the sketch wire format, the
// streaming Recording.Write path, and the harness cell-pool's matrix
// wall-clock at -j 1 vs -j GOMAXPROCS. `make bench` runs them; the
// end-to-end record cost is bench/'s record workloads.
package repro_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// discardCounter counts encoded bytes without retaining them, like the
// recording pipeline's own size pre-pass.
type discardCounter struct{ n int }

func (w *discardCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchRecording records mysqld's production workload once per scheme
// — the corpus's densest sketches — and is shared across benchmarks.
var benchRecordings = map[sketch.Scheme]*core.Recording{}

func benchRecording(b *testing.B, s sketch.Scheme) *core.Recording {
	b.Helper()
	if rec, ok := benchRecordings[s]; ok {
		return rec
	}
	prog, ok := apps.Get("mysqld")
	if !ok {
		b.Fatal("mysqld not in corpus")
	}
	rec := core.Record(prog, core.Options{
		Scheme:       s,
		Processors:   4,
		ScheduleSeed: 1,
		WorldSeed:    1,
		Scale:        400,
		MaxSteps:     5_000_000,
		FixBugs:      true,
	})
	if rec.Sketch.Len() == 0 && s != sketch.BASE {
		b.Fatalf("%v sketch empty", s)
	}
	benchRecordings[s] = rec
	return rec
}

// BenchmarkEncodeSketch measures the sketch codec on real recorded
// logs: ns/entry is encoder speed, bytes/entry the density the
// log-size experiment (E3) reports.
func BenchmarkEncodeSketch(b *testing.B) {
	for _, s := range []sketch.Scheme{sketch.SYNC, sketch.SYS, sketch.FUNC, sketch.BB, sketch.RW} {
		l := benchRecording(b, s).Sketch
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				var cw discardCounter
				if err := trace.EncodeSketch(&cw, l); err != nil {
					b.Fatal(err)
				}
				size = cw.n
			}
			entries := float64(l.Len())
			b.ReportMetric(float64(size)/entries, "bytes/entry")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*entries), "ns/entry")
		})
	}
}

// BenchmarkEncodeInput measures the input-log codec on a production
// run.
func BenchmarkEncodeInput(b *testing.B) {
	l := benchRecording(b, sketch.SYNC).Inputs
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		var cw discardCounter
		if err := trace.EncodeInput(&cw, l); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.ReportMetric(float64(size)/float64(max(l.Len(), 1)), "bytes/record")
}

// BenchmarkRecordingWrite measures the full serialization path —
// counting pre-pass plus streaming encode — which no longer buffers
// the encoded sections in memory.
func BenchmarkRecordingWrite(b *testing.B) {
	rec := benchRecording(b, sketch.SYNC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rec.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSketch measures the sketch decoder on a real log.
func BenchmarkDecodeSketch(b *testing.B) {
	var buf bytes.Buffer
	if err := trace.EncodeSketch(&buf, benchRecording(b, sketch.SYNC).Sketch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeSketch(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessMatrix times the E2 overhead matrix through the
// experiment cell pool at -j 1 (sequential baseline) and
// -j GOMAXPROCS. The tables are byte-identical (TestJobsDeterminism);
// only the wall-clock should move.
func BenchmarkHarnessMatrix(b *testing.B) {
	cfg := harness.Config{SeedBudget: 2000, MaxAttempts: 1000, OverheadScale: 150}
	for _, tc := range []struct {
		name string
		jobs int
	}{{"j1", 1}, {"jmax", runtime.GOMAXPROCS(0)}} {
		b.Run(tc.name, func(b *testing.B) {
			c := cfg
			c.Jobs = tc.jobs
			for i := 0; i < b.N; i++ {
				rows := harness.RunE2(nil, c)
				if len(rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}
