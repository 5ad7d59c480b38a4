package repro_test

import (
	"io"
	"testing"

	"repro"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/ssync"
	"repro/internal/trace"
)

// Substrate micro-benchmarks: the raw costs that bound every experiment
// above — scheduling-point throughput, primitive operations, recorder
// appends.

// BenchmarkSchedulingPoint measures the substrate's event throughput:
// one yield and resume of the same thread's coroutine, plus the pick
// and commit bookkeeping, per instrumented op.
func BenchmarkSchedulingPoint(b *testing.B) {
	b.ReportAllocs()
	res := sched.Run(func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			th.Yield()
		}
	}, sched.Config{Strategy: sched.Lowest{}, MaxSteps: uint64(b.N) + 10})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
}

// switcher is a strategy that never grants the same thread twice in a
// row while another is runnable.
type switcher struct{ last trace.TID }

func (s *switcher) Pick(view *sched.PickView) (trace.TID, bool) {
	tid := view.Candidates[0].TID
	if tid == s.last && len(view.Candidates) > 1 {
		tid = view.Candidates[1].TID
	}
	s.last = tid
	return tid, true
}

// BenchmarkSchedulingSwitch measures a real thread switch: two threads
// yield in alternation, so every step suspends one thread's coroutine
// and resumes the other's. One op is one step.
func BenchmarkSchedulingSwitch(b *testing.B) {
	b.ReportAllocs()
	half := b.N/2 + 1
	body := func(th *sched.Thread) {
		for i := 0; i < half; i++ {
			th.Yield()
		}
	}
	res := sched.Run(func(th *sched.Thread) {
		other := th.Spawn("other", body)
		body(th)
		th.Join(other)
	}, sched.Config{Strategy: &switcher{last: trace.NoTID}, MaxSteps: uint64(b.N) + 20})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
}

// BenchmarkSchedulingPointBatch measures throughput of declared
// straight-line batches: four ops per yield and resume.
func BenchmarkSchedulingPointBatch(b *testing.B) {
	b.ReportAllocs()
	batch := []*sched.Op{
		{Kind: trace.KindBB, Obj: 1},
		{Kind: trace.KindStore, Obj: 2},
		{Kind: trace.KindStore, Obj: 3},
		{Kind: trace.KindStore, Obj: 4},
	}
	res := sched.Run(func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			th.PointBatch(batch...)
		}
	}, sched.Config{Strategy: sched.NewRandomMP(1, 0, 1), MaxSteps: 4*uint64(b.N) + 10})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
	if res.Steps != 4*uint64(b.N)+2 {
		b.Fatalf("steps = %d", res.Steps)
	}
}

// countObserver exercises the observer fan-out without retaining events.
type countObserver struct{ n uint64 }

func (c *countObserver) OnEvent(ev trace.Event) uint64 {
	c.n++
	return 0
}

// TestSchedGrantLoopAllocFree is the allocation gate for the grant
// loop: a run of ~9k scheduling points (yields plus pre-declared
// batches, with an observer fanning out every event) must stay within
// a small fixed allocation budget — per-step allocations are zero; only
// per-run setup (thread, coroutine) remains. A loop that
// allocated a view, candidate slice or effect context per step would
// exceed this bound by orders of magnitude.
func TestSchedGrantLoopAllocFree(t *testing.T) {
	const yields, batches = 5000, 1000
	batch := []*sched.Op{
		{Kind: trace.KindBB, Obj: 1},
		{Kind: trace.KindStore, Obj: 2},
		{Kind: trace.KindStore, Obj: 3},
		{Kind: trace.KindStore, Obj: 4},
	}
	const steps = yields + 4*batches + 2
	run := func() {
		obs := &countObserver{}
		res := sched.Run(func(th *sched.Thread) {
			for i := 0; i < yields; i++ {
				th.Yield()
			}
			for i := 0; i < batches; i++ {
				th.PointBatch(batch...)
			}
		}, sched.Config{Strategy: sched.Lowest{}, Observers: []sched.Observer{obs}})
		if res.Failure != nil {
			t.Fatal(res.Failure)
		}
		if res.Steps != steps || obs.n != steps {
			t.Fatalf("steps = %d, observed = %d, want %d", res.Steps, obs.n, steps)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	// Fixed per-run setup costs tens of allocations; at ~9k steps any
	// per-step allocation would blow far past this bound.
	if allocs > 100 {
		t.Fatalf("grant loop allocated %.0f objects over %d steps (%.4f/step); want amortized zero",
			allocs, steps, allocs/steps)
	}
}

// BenchmarkSchedulingPointMetricsOff is the observability acceptance
// benchmark's baseline: identical to BenchmarkSchedulingPoint but named
// for side-by-side comparison with the MetricsOn variant. The disabled
// path (nil registry) must stay within noise of never having had
// instrumentation — compare with:
//
//	go test -bench 'SchedulingPointMetrics' -benchtime 2s -count 5 .
func BenchmarkSchedulingPointMetricsOff(b *testing.B) {
	benchSchedulingPoint(b, nil)
}

// BenchmarkSchedulingPointMetricsOn measures the same loop with a live
// registry: the per-event cost is one pre-resolved atomic add.
func BenchmarkSchedulingPointMetricsOn(b *testing.B) {
	benchSchedulingPoint(b, repro.NewMetricsRegistry())
}

func benchSchedulingPoint(b *testing.B, reg *repro.MetricsRegistry) {
	res := sched.Run(func(th *sched.Thread) {
		for i := 0; i < b.N; i++ {
			th.Yield()
		}
	}, sched.Config{Strategy: sched.Lowest{}, MaxSteps: uint64(b.N) + 10, Metrics: reg})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
}

// BenchmarkReplaySearchMetricsOff / On measure a full replay search of a
// corpus bug with observability disabled vs fully enabled (registry and
// trace sink) — the end-to-end version of the SchedulingPointMetrics
// pair.
func BenchmarkReplaySearchMetricsOff(b *testing.B) {
	benchReplaySearch(b, false)
}

func BenchmarkReplaySearchMetricsOn(b *testing.B) {
	benchReplaySearch(b, true)
}

func benchReplaySearch(b *testing.B, instrument bool) {
	prog, _ := repro.ProgramForBug("fft-barrier")
	oracle := repro.MatchBugID("fft-barrier")
	rec := recordBugBench(b, prog, oracle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := repro.ReplayOptions{Feedback: true, Oracle: oracle}
		if instrument {
			opts.Metrics = repro.NewMetricsRegistry()
			opts.Trace = repro.NewTraceSink(io.Discard)
		}
		if !repro.Replay(prog, rec, opts).Reproduced {
			b.Fatal("lost the bug")
		}
	}
}

func recordBugBench(b *testing.B, prog *repro.Program, oracle repro.Oracle) *repro.Recording {
	b.Helper()
	for seed := int64(0); seed < 3000; seed++ {
		r := repro.Record(prog, repro.Options{Scheme: repro.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1})
		if f := r.BugFailure(); f != nil && oracle(f) {
			return r
		}
	}
	b.Fatal("no buggy seed")
	return nil
}

// BenchmarkMutexRoundTrip measures a lock/unlock pair under the
// simulated scheduler.
func BenchmarkMutexRoundTrip(b *testing.B) {
	res := sched.Run(func(th *sched.Thread) {
		m := ssync.NewMutex("bench")
		for i := 0; i < b.N; i++ {
			m.Lock(th)
			m.Unlock(th)
		}
	}, sched.Config{Strategy: sched.Lowest{}, MaxSteps: 2*uint64(b.N) + 10})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
}

// BenchmarkCellStore measures one shared-memory write.
func BenchmarkCellStore(b *testing.B) {
	res := sched.Run(func(th *sched.Thread) {
		x := mem.NewCell("bench.x", 0)
		for i := 0; i < b.N; i++ {
			x.Store(th, uint64(i))
		}
	}, sched.Config{Strategy: sched.Lowest{}, MaxSteps: uint64(b.N) + 10})
	if res.Failure != nil {
		b.Fatal(res.Failure)
	}
}

// BenchmarkSketchAppend measures the real in-memory recorder append.
// A fresh recorder starts every sketchAppendRun entries, about one fft
// RW recording, so the figure prices appending to a run-sized log
// rather than growing one log b.N entries long.
func BenchmarkSketchAppend(b *testing.B) {
	const sketchAppendRun = 30_000
	ev := trace.Event{TID: 1, TCount: 1, Kind: trace.KindLock, Obj: 42}
	var r *sketch.Recorder
	for i := 0; i < b.N; i++ {
		if i%sketchAppendRun == 0 {
			r = sketch.NewRecorder(sketch.SYNC)
		}
		r.OnEvent(ev)
	}
}

// BenchmarkReproduceRun measures deterministic full-order replay of a
// corpus bug — the "every time" path a developer loops in a debugger.
func BenchmarkReproduceRun(b *testing.B) {
	prog, _ := repro.ProgramForBug("fft-barrier")
	oracle := repro.MatchBugID("fft-barrier")
	var rec *repro.Recording
	for seed := int64(0); seed < 3000; seed++ {
		r := repro.Record(prog, repro.Options{Scheme: repro.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1})
		if f := r.BugFailure(); f != nil && oracle(f) {
			rec = r
			break
		}
	}
	if rec == nil {
		b.Fatal("no buggy seed")
	}
	res := repro.Replay(prog, rec, repro.ReplayOptions{Feedback: true, Oracle: oracle})
	if !res.Reproduced {
		b.Fatal("setup failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := repro.Reproduce(prog, rec, res.Order)
		if out.Failure == nil {
			b.Fatal("lost the bug")
		}
	}
}
