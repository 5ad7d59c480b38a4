// Benchmarks for the allocation-lean recording pipeline: encoder
// throughput and density per scheme in the sketch wire format, the
// single-pass Recording.Write path, and the harness cell-pool's matrix
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
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = trace.AppendSketch(buf[:0], l)
			}
			entries := float64(l.Len())
			b.ReportMetric(float64(len(buf))/entries, "bytes/entry")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*entries), "ns/entry")
		})
	}
}

// BenchmarkEncodeInput measures the input-log codec on a production
// run.
func BenchmarkEncodeInput(b *testing.B) {
	l := benchRecording(b, sketch.SYNC).Inputs
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = trace.AppendInput(buf[:0], l)
	}
	b.ReportMetric(float64(len(buf))/float64(max(l.Len(), 1)), "bytes/record")
}

// BenchmarkRecordingWrite measures the full serialization path: each
// section encoded once into a reused buffer, then written with its
// length prefix. SYNC is the sparse sketch of an always-on recording,
// RW the dense full memory-order log PRES is measured against.
func BenchmarkRecordingWrite(b *testing.B) {
	for _, s := range []sketch.Scheme{sketch.SYNC, sketch.RW} {
		rec := benchRecording(b, s)
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := rec.Write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSketch measures the sketch decoder on a real log.
func BenchmarkDecodeSketch(b *testing.B) {
	data := trace.AppendSketch(nil, benchRecording(b, sketch.SYNC).Sketch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeSketch(bytes.NewReader(data)); err != nil {
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
