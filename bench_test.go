// Benchmarks regenerating the paper's evaluation: one testing.B
// benchmark per experiment that runs its own executions (E3, E7 and E8
// render E2's and E1's runs, so E2RecordOverhead and E1PerScheme cover
// them), plus ablation benches for the design choices DESIGN.md calls
// out. Custom metrics carry the experiment's actual result (replay
// attempts, overhead percentages); ns/op carries the cost of running
// the experiment itself. cmd/presbench prints the same data as tables.
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sketch"
)

var benchCfg = harness.Config{
	Processors:    4,
	MaxAttempts:   1000,
	SeedBudget:    2000,
	OverheadScale: 400,
}

// BenchmarkE1Reproduction regenerates the headline table: replay
// attempts to reproduce every corpus bug under SYNC sketching.
func BenchmarkE1Reproduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunE1([]sketch.Scheme{sketch.SYNC}, benchCfg)
		total, repro10, failed := 0, 0, 0
		for _, r := range rows {
			if r.Err != nil || !r.Reproduced {
				failed++
				continue
			}
			total += r.Attempts
			if r.Attempts < 10 {
				repro10++
			}
		}
		b.ReportMetric(float64(total)/float64(len(rows)), "attempts/bug")
		b.ReportMetric(float64(repro10), "bugs-under-10-attempts")
		b.ReportMetric(float64(failed), "bugs-not-reproduced")
	}
}

// BenchmarkE1PerScheme sweeps the reproduction table per sketching
// mechanism (one sub-benchmark per scheme).
func BenchmarkE1PerScheme(b *testing.B) {
	for _, s := range sketch.All() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := harness.RunE1([]sketch.Scheme{s}, benchCfg)
				total, failed := 0, 0
				for _, r := range rows {
					if r.Err != nil || !r.Reproduced {
						failed++
						continue
					}
					total += r.Attempts
				}
				b.ReportMetric(float64(total)/float64(len(rows)), "attempts/bug")
				b.ReportMetric(float64(failed), "bugs-not-reproduced")
			}
		})
	}
}

// BenchmarkE2RecordOverhead regenerates the recording-overhead figure:
// the modelled production slowdown of each sketching mechanism, averaged
// over the 11 applications (per-scheme sub-benchmarks). ns/op is the
// wall-clock cost of the instrumented production run itself.
func BenchmarkE2RecordOverhead(b *testing.B) {
	for _, s := range sketch.All() {
		b.Run(s.String(), func(b *testing.B) {
			var rows []harness.E2Row
			for i := 0; i < b.N; i++ {
				rows = harness.RunE2([]sketch.Scheme{s}, benchCfg)
			}
			sum := 0.0
			for _, r := range rows {
				if r.Err == nil {
					sum += r.Overhead
				}
			}
			b.ReportMetric(sum/float64(len(rows))*100, "overhead-%")
		})
	}
}

// BenchmarkE4Scalability regenerates the processor-count sweep: SYNC
// attempts and overhead at each machine size.
func BenchmarkE4Scalability(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(procName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := harness.RunE4([]int{p}, nil, benchCfg)
				att, ovh := 0, 0.0
				for _, r := range rows {
					if r.Err == nil {
						att += r.Attempts
						ovh += r.Overhead
					}
				}
				b.ReportMetric(float64(att)/float64(len(rows)), "attempts/bug")
				b.ReportMetric(ovh/float64(len(rows))*100, "overhead-%")
			}
		})
	}
}

func procName(p int) string {
	return map[int]string{1: "P1", 2: "P2", 4: "P4", 8: "P8", 16: "P16"}[p]
}

// BenchmarkE5Feedback regenerates the feedback-ablation figure: attempts
// with feedback-directed search versus blind random exploration.
func BenchmarkE5Feedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunE5(nil, benchCfg)
		with, without, withoutFailed := 0, 0, 0
		for _, r := range rows {
			if r.Err != nil {
				continue
			}
			with += r.WithFeedback
			if r.WithoutFeedbackOK {
				without += r.WithoutFeedback
			} else {
				withoutFailed++
				without += benchCfg.MaxAttempts
			}
		}
		b.ReportMetric(float64(with)/float64(len(rows)), "attempts-with-feedback")
		b.ReportMetric(float64(without)/float64(len(rows)), "attempts-without-feedback")
		b.ReportMetric(float64(withoutFailed), "no-feedback-budget-exhaustions")
	}
}

// BenchmarkE6Determinism regenerates the reproduce-every-time check: the
// fraction of captured-order re-replays that reproduce their bug (must
// be 1.0).
func BenchmarkE6Determinism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunE6(nil, 25, benchCfg)
		ok := 0
		for _, r := range rows {
			if r.Err == nil && r.AllRepro {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(len(rows)), "deterministic-fraction")
	}
}

// BenchmarkRecorderThroughput measures the real (wall-clock) cost of the
// sketch recorders on a production run of the full corpus — the actual
// Go implementation's logging speed, complementing the modelled
// overheads of E2.
func BenchmarkRecorderThroughput(b *testing.B) {
	for _, s := range sketch.All() {
		b.Run(s.String(), func(b *testing.B) {
			progs := repro.Programs()
			steps := uint64(0)
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					rec := repro.Record(p, repro.Options{
						Scheme:       s,
						Processors:   4,
						ScheduleSeed: 1,
						WorldSeed:    1,
						Scale:        100,
						FixBugs:      true,
					})
					steps += rec.Result.Steps
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "events/iter")
		})
	}
}

// BenchmarkAblationPolicy compares the replayer's deterministic sticky
// baseline policy against seeded-random exploration on the corpus
// (design-choice ablation from DESIGN.md): the sticky baseline is what
// makes attempt 0 resemble the recorded run.
func BenchmarkAblationPolicy(b *testing.B) {
	bugs := []string{"openldap-deadlock", "radix-deadlock", "fft-barrier", "aget-atomicity"}
	b.Run("sticky-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			first := 0
			for _, bug := range bugs {
				_, res, err := harness.ReproduceBug(bug, sketch.SYNC, benchCfg)
				if err == nil && res.Reproduced && res.Attempts == 1 {
					first++
				}
			}
			b.ReportMetric(float64(first), "first-attempt-reproductions")
		}
	})
}

// BenchmarkParallelReplay measures wall-clock speedup from running
// replay attempts concurrently (they are independent executions).
func BenchmarkParallelReplay(b *testing.B) {
	prog, _ := repro.ProgramForBug("mysql-791")
	_, rec, err := harness.FindBuggySeed(prog, "mysql-791", sketch.SYNC, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "P1", 4: "P4", 8: "P8"}[p], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.Replay(prog, rec, core.ReplayOptions{
					Feedback: true,
					Oracle:   core.MatchBugID("mysql-791"),
					Workers:  p,
				})
				if !res.Reproduced {
					b.Fatal("not reproduced")
				}
				b.ReportMetric(float64(res.Attempts), "attempts")
			}
		})
	}
}

// BenchmarkE10Patterns regenerates the canonical bug-pattern matrix
// (extension): attempts to reproduce each pattern class under SYNC.
func BenchmarkE10Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunE10([]sketch.Scheme{sketch.SYNC}, benchCfg)
		total, failed := 0, 0
		for _, r := range rows {
			if r.Err != nil || !r.Reproduced {
				failed++
				continue
			}
			total += r.Attempts
		}
		b.ReportMetric(float64(total)/float64(len(rows)), "attempts/pattern")
		b.ReportMetric(float64(failed), "patterns-not-reproduced")
	}
}
