package sched

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// batchWorkload mixes every grant-protocol shape: declared straight-line
// batches (with and without effects), plain contended ops behind an
// Enabled gate, yields, spawn/join, and a single-threaded tail loop that
// exercises the tight single-candidate path. A final invariant check
// makes some schedules fail, so the equivalence tests also cover failing
// runs.
func batchWorkload(workers, iters int) func(*Thread) {
	return func(th *Thread) {
		shared := uint64(0)
		acc := make([]uint64, workers)
		var mu trace.TID = trace.NoTID // toy mutex holder
		var ws []*Thread
		for w := 0; w < workers; w++ {
			w := w
			ws = append(ws, th.Spawn("w", func(t *Thread) {
				for i := 0; i < iters; i++ {
					// Straight-line compute batch: block marker, two
					// loads folding into thread-local state, one store.
					var a, b uint64
					t.PointBatch(
						&Op{Kind: trace.KindBB, Obj: 0x10, Cost: 120},
						&Op{Kind: trace.KindLoad, Obj: 0x20, Effect: func(ctx *EffectCtx) { a = shared; ctx.Ev.Arg = a }},
						&Op{Kind: trace.KindLoad, Obj: 0x21, Effect: func(ctx *EffectCtx) { b = acc[w]; ctx.Ev.Arg = b }},
						&Op{Kind: trace.KindStore, Obj: 0x21, Cost: 30, Effect: func(ctx *EffectCtx) {
							acc[w] = a + b + 1
							ctx.Ev.Arg = acc[w]
						}},
					)
					// Contended critical section behind an Enabled gate.
					t.Point(&Op{Kind: trace.KindLock, Obj: 0x30,
						Enabled: func() bool { return mu == trace.NoTID },
						Effect:  func(ctx *EffectCtx) { mu = ctx.Self().ID() }})
					t.Point(&Op{Kind: trace.KindLoad, Obj: 0x1, Effect: func(ctx *EffectCtx) { ctx.Ev.Arg = shared }})
					t.Point(&Op{Kind: trace.KindStore, Obj: 0x1, Cost: 50, Effect: func(*EffectCtx) { shared++ }})
					t.Point(&Op{Kind: trace.KindUnlock, Obj: 0x30, Effect: func(*EffectCtx) { mu = trace.NoTID }})
					t.Yield()
				}
			}))
		}
		for _, w := range ws {
			th.Join(w)
		}
		// Single-threaded tail: only one live thread, batches with
		// effects — the tight-loop case.
		total := uint64(0)
		for w := 0; w < workers; w++ {
			w := w
			th.PointBatch(
				&Op{Kind: trace.KindBB, Obj: 0x11, Cost: 80},
				&Op{Kind: trace.KindLoad, Obj: 0x21, Effect: func(ctx *EffectCtx) { total += acc[w]; ctx.Ev.Arg = acc[w] }},
			)
		}
		th.Check(shared == uint64(workers*iters), "batch-lost-increment",
			"shared = %d, want %d", shared, workers*iters)
	}
}

// runModes runs the workload under cfg twice — fast path and single-step
// reference — and returns both event streams and results.
func runModes(prog func(*Thread), mk func() Strategy, maxSteps uint64) (fastEvs, slowEvs []trace.Event, fast, slow *Result) {
	cf := &collector{}
	fast = Run(prog, Config{Strategy: mk(), Observers: []Observer{cf}, MaxSteps: maxSteps})
	cs := &collector{}
	slow = Run(prog, Config{Strategy: mk(), Observers: []Observer{cs}, MaxSteps: maxSteps, SingleStep: true})
	return cf.evs, cs.evs, fast, slow
}

func checkEquivalent(t *testing.T, label string, fastEvs, slowEvs []trace.Event, fast, slow *Result) {
	t.Helper()
	if !reflect.DeepEqual(fastEvs, slowEvs) {
		n := len(fastEvs)
		if len(slowEvs) < n {
			n = len(slowEvs)
		}
		for i := 0; i < n; i++ {
			if fastEvs[i] != slowEvs[i] {
				t.Fatalf("%s: traces diverge at event %d: fast %+v, single-step %+v", label, i, fastEvs[i], slowEvs[i])
			}
		}
		t.Fatalf("%s: trace lengths differ: fast %d, single-step %d", label, len(fastEvs), len(slowEvs))
	}
	if fast.Steps != slow.Steps || fast.BaseCost != slow.BaseCost ||
		fast.ExtraCost != slow.ExtraCost || fast.Threads != slow.Threads ||
		fast.Handoffs != slow.Handoffs || fast.EventsByKind != slow.EventsByKind {
		t.Fatalf("%s: results differ:\nfast:        %+v\nsingle-step: %+v", label, fast, slow)
	}
	switch {
	case (fast.Failure == nil) != (slow.Failure == nil):
		t.Fatalf("%s: failure mismatch: fast %v, single-step %v", label, fast.Failure, slow.Failure)
	case fast.Failure != nil:
		f, g := fast.Failure, slow.Failure
		if f.Reason != g.Reason || f.BugID != g.BugID || f.TID != g.TID || f.Step != g.Step {
			t.Fatalf("%s: failures differ: fast %v, single-step %v", label, f, g)
		}
	}
	if slow.FastPathSteps != 0 {
		t.Fatalf("%s: single-step mode committed %d fast-path steps", label, slow.FastPathSteps)
	}
}

// TestPropFastPathEquivalence: for any seed, processor count and
// preemption rate, the fast path (run budgets, batch commits, tight
// single-candidate loop) must commit the byte-identical event stream and
// identical result accounting as the single-step reference mode.
func TestPropFastPathEquivalence(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, preempt := range []float64{0, 0.1} {
			for seed := int64(1); seed <= 6; seed++ {
				label := fmt.Sprintf("p=%d preempt=%v seed=%d", p, preempt, seed)
				fastEvs, slowEvs, fast, slow := runModes(
					batchWorkload(3, 6),
					func() Strategy { return NewRandomMP(p, preempt, seed) },
					0)
				checkEquivalent(t, label, fastEvs, slowEvs, fast, slow)
				if fast.FastPathSteps == 0 {
					t.Fatalf("%s: fast mode committed no fast-path steps", label)
				}
				if fast.Handoffs >= fast.Steps {
					t.Fatalf("%s: handoffs (%d) not amortized below steps (%d)", label, fast.Handoffs, fast.Steps)
				}
			}
		}
	}
}

// TestPropFastPathEquivalenceStepClamp: MaxSteps landing mid-batch must
// clamp both modes at the identical step with identical failures.
func TestPropFastPathEquivalenceStepClamp(t *testing.T) {
	for _, max := range []uint64{7, 23, 40, 57} {
		fastEvs, slowEvs, fast, slow := runModes(
			batchWorkload(2, 5),
			func() Strategy { return NewRandomMP(2, 0.05, 11) },
			max)
		label := fmt.Sprintf("maxsteps=%d", max)
		checkEquivalent(t, label, fastEvs, slowEvs, fast, slow)
		if fast.Failure == nil || fast.Failure.Reason != ReasonStepLimit {
			t.Fatalf("%s: expected step-limit failure, got %v", label, fast.Failure)
		}
		if fast.Steps != max {
			t.Fatalf("%s: committed %d steps", label, fast.Steps)
		}
	}
}

// TestPropFastPathOrderReplayEquivalence: a full order captured from a
// fast-path run replays to the identical trace under OrderStrategy in
// both modes — run grants over consecutive same-thread stretches do not
// disturb the reproduce-every-time property.
func TestPropFastPathOrderReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := &collector{}
		orig := Run(batchWorkload(3, 5), Config{
			Strategy:  NewRandomMP(4, 0.1, seed),
			Observers: []Observer{c},
		})
		order := make([]trace.TID, len(c.evs))
		for i, ev := range c.evs {
			order[i] = ev.TID
		}
		fastEvs, slowEvs, fast, slow := runModes(
			batchWorkload(3, 5),
			func() Strategy { return &OrderStrategy{Order: order} },
			0)
		label := fmt.Sprintf("order-replay seed=%d", seed)
		checkEquivalent(t, label, fastEvs, slowEvs, fast, slow)
		if !reflect.DeepEqual(fastEvs, c.evs) {
			t.Fatalf("%s: replayed trace differs from original", label)
		}
		if (orig.Failure == nil) != (fast.Failure == nil) {
			t.Fatalf("%s: replay failure mismatch: %v vs %v", label, orig.Failure, fast.Failure)
		}
		if fast.FastPathSteps == 0 {
			t.Fatalf("%s: order replay took no fast-path steps", label)
		}
	}
}

// TestPropNoBatchEquivalentForRunBlindStrategy: under a strategy that
// ignores Candidate.Run, decomposing batches into per-op round-trips
// (the measurement baseline) must not change the committed trace — only
// the handoff count.
func TestPropNoBatchEquivalentForRunBlindStrategy(t *testing.T) {
	c1 := &collector{}
	r1 := Run(batchWorkload(3, 4), Config{Strategy: Lowest{}, Observers: []Observer{c1}})
	c2 := &collector{}
	r2 := Run(batchWorkload(3, 4), Config{Strategy: Lowest{}, Observers: []Observer{c2}, NoBatch: true})
	if !reflect.DeepEqual(c1.evs, c2.evs) {
		t.Fatal("NoBatch changed the committed trace under a Run-blind strategy")
	}
	if r1.Handoffs >= r2.Handoffs {
		t.Fatalf("batching saved no handoffs: batched %d, decomposed %d", r1.Handoffs, r2.Handoffs)
	}
	if r2.Handoffs != r2.Steps {
		t.Fatalf("NoBatch mode should hand off every step: %d handoffs, %d steps", r2.Handoffs, r2.Steps)
	}
}

// TestRunCancellationNeverLandsMidRunBatch: under a run-granting
// strategy a declared batch is committed as one run; cancelling the
// context from inside a batch op's effect must still commit the rest of
// the granted run before the failure lands — cancellation is polled at
// pick points, between runs, never inside one.
func TestRunCancellationNeverLandsMidRunBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &collector{}
	res := Run(func(th *Thread) {
		th.PointBatch(
			&Op{Kind: trace.KindBB, Obj: 0x1},
			&Op{Kind: trace.KindStore, Obj: 0x2, Effect: func(*EffectCtx) { cancel() }},
			&Op{Kind: trace.KindStore, Obj: 0x3},
			&Op{Kind: trace.KindStore, Obj: 0x4},
		)
		for i := 0; i < 100; i++ {
			th.Yield()
		}
	}, Config{Strategy: NewRandomMP(1, 0, 1), Observers: []Observer{c}, Ctx: ctx})
	if res.Failure == nil || res.Failure.Reason != ReasonCancelled {
		t.Fatalf("expected cancellation, got %v", res.Failure)
	}
	// ThreadStart + the 4 batch ops must all have committed: the run
	// grant is indivisible with respect to cancellation.
	var sawTail bool
	for _, ev := range c.evs {
		if ev.Kind == trace.KindStore && ev.Obj == 0x4 {
			sawTail = true
		}
	}
	if !sawTail {
		t.Fatalf("cancellation landed mid-run; committed %d events", len(c.evs))
	}
	if res.Steps > 6 {
		t.Fatalf("cancellation was not prompt: %d steps", res.Steps)
	}
}

// TestRunCancellationUnwindsMidBatchCleanly: under a budget-1 strategy
// every batch op is its own run, so cancellation may land between two
// ops of a declared batch; the thread — still blocked in PointBatch —
// must unwind cleanly through the stop channel.
func TestRunCancellationUnwindsMidBatchCleanly(t *testing.T) {
	for _, singleStep := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		res := Run(func(th *Thread) {
			th.PointBatch(
				&Op{Kind: trace.KindBB, Obj: 0x1},
				&Op{Kind: trace.KindStore, Obj: 0x2, Effect: func(*EffectCtx) { cancel() }},
				&Op{Kind: trace.KindStore, Obj: 0x3},
				&Op{Kind: trace.KindStore, Obj: 0x4},
			)
		}, Config{Strategy: Lowest{}, Ctx: ctx, SingleStep: singleStep})
		if res.Failure == nil || res.Failure.Reason != ReasonCancelled {
			t.Fatalf("singleStep=%v: expected cancellation, got %v", singleStep, res.Failure)
		}
		cancel()
	}
}

// TestPointBatchRejectsEnabledOps: a batch is a declaration of
// unconditional straight-line execution; an Enabled gate inside one is a
// programming error.
func TestPointBatchRejectsEnabledOps(t *testing.T) {
	res := Run(func(th *Thread) {
		th.PointBatch(
			&Op{Kind: trace.KindYield},
			&Op{Kind: trace.KindLock, Enabled: func() bool { return true }},
		)
	}, Config{Strategy: Lowest{}})
	if res.Failure == nil || res.Failure.Reason != ReasonCrash {
		t.Fatalf("expected crash from gated batch op, got %v", res.Failure)
	}
}

// TestPointBatchInterruptible: under a budget-1 strategy another thread
// can be interleaved between two ops of a declared batch — batching
// amortizes handoffs without coarsening the schedule space.
func TestPointBatchInterruptible(t *testing.T) {
	// alternate deliberately bounces between the two workers.
	c := &collector{}
	res := Run(func(th *Thread) {
		a := th.Spawn("a", func(t *Thread) {
			t.PointBatch(
				&Op{Kind: trace.KindStore, Obj: 0xa1},
				&Op{Kind: trace.KindStore, Obj: 0xa2},
				&Op{Kind: trace.KindStore, Obj: 0xa3},
			)
		})
		b := th.Spawn("b", func(t *Thread) {
			t.PointBatch(
				&Op{Kind: trace.KindStore, Obj: 0xb1},
				&Op{Kind: trace.KindStore, Obj: 0xb2},
				&Op{Kind: trace.KindStore, Obj: 0xb3},
			)
		})
		th.Join(a)
		th.Join(b)
	}, Config{Strategy: alternate{}, Observers: []Observer{c}})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	// Find a b-store committed between two a-stores (or vice versa).
	interleaved := false
	lastA := trace.NoTID
	for _, ev := range c.evs {
		if ev.Kind != trace.KindStore {
			continue
		}
		tid := ev.TID
		if lastA != trace.NoTID && tid != lastA {
			interleaved = true
		}
		lastA = tid
	}
	if !interleaved {
		t.Fatal("strategy could not interleave threads between batch ops")
	}
}

// alternate is a budget-1 strategy that switches threads whenever more
// than one candidate is runnable.
type alternate struct{}

func (alternate) Pick(view *PickView) (trace.TID, bool) {
	if len(view.Candidates) == 1 {
		return view.Candidates[0].TID, true
	}
	// Prefer a candidate different from the one that ran last step:
	// view.Step parity is a cheap stand-in that bounces between the
	// first two candidates.
	return view.Candidates[int(view.Step)%2].TID, true
}

// runStartObserver records run announcements alongside the events.
type runStartObserver struct {
	events int
	runs   []int
}

func (o *runStartObserver) OnEvent(trace.Event) uint64 { o.events++; return 0 }
func (o *runStartObserver) OnRunStart(n int)           { o.runs = append(o.runs, n) }

// TestRunObserverAnnouncesRuns: a RunObserver hears every multi-step
// grant (with its budget as an upper bound on the run length) under a
// run-granting strategy, hears nothing in single-step mode, and sees
// the identical event stream either way.
func TestRunObserverAnnouncesRuns(t *testing.T) {
	fast := &runStartObserver{}
	Run(batchWorkload(2, 3), Config{Strategy: NewRandomMP(2, 0, 5), Observers: []Observer{fast}})
	if len(fast.runs) == 0 {
		t.Fatal("no run announced under a run-granting strategy with declared batches")
	}
	for _, n := range fast.runs {
		if n < 2 {
			t.Fatalf("announced run budget %d; budget-1 grants must stay silent", n)
		}
	}
	slow := &runStartObserver{}
	Run(batchWorkload(2, 3), Config{Strategy: NewRandomMP(2, 0, 5), Observers: []Observer{slow}, SingleStep: true})
	if len(slow.runs) != 0 {
		t.Fatalf("single-step mode announced %d runs", len(slow.runs))
	}
	if fast.events != slow.events {
		t.Fatalf("observer event streams diverge: %d vs %d events", fast.events, slow.events)
	}
}
