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
// Enabled gate, yields, spawn/join, and a single-threaded tail of
// batches. A final invariant check makes some schedules fail, so the
// tests also cover failing runs.
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
		// effects.
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

// TestOrderReplayReproducesBatchedRun: a full order captured from a
// production run with declared batches replays under OrderStrategy to
// the identical trace and outcome — the reproduce-every-time property
// holds across batch ops.
func TestOrderReplayReproducesBatchedRun(t *testing.T) {
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
		r := &collector{}
		rep := Run(batchWorkload(3, 5), Config{Strategy: &OrderStrategy{Order: order}, Observers: []Observer{r}})
		label := fmt.Sprintf("order-replay seed=%d", seed)
		if !reflect.DeepEqual(r.evs, c.evs) {
			t.Fatalf("%s: replayed trace differs from original", label)
		}
		if (orig.Failure == nil) != (rep.Failure == nil) || rep.Handoffs != orig.Handoffs {
			t.Fatalf("%s: replay outcome differs: failure %v vs %v, handoffs %d vs %d",
				label, orig.Failure, rep.Failure, orig.Handoffs, rep.Handoffs)
		}
	}
}

// TestStepLimitClampsMidBatch: MaxSteps landing mid-batch stops the run
// at exactly that many committed steps with a step-limit failure.
func TestStepLimitClampsMidBatch(t *testing.T) {
	for _, max := range []uint64{7, 23, 40, 57} {
		res := Run(batchWorkload(2, 5), Config{Strategy: NewRandomMP(2, 0.05, 11), MaxSteps: max})
		label := fmt.Sprintf("maxsteps=%d", max)
		if res.Failure == nil || res.Failure.Reason != ReasonStepLimit {
			t.Fatalf("%s: expected step-limit failure, got %v", label, res.Failure)
		}
		if res.Steps != max {
			t.Fatalf("%s: committed %d steps", label, res.Steps)
		}
	}
}

// TestPointBatchSavesHandoffs: declaring ops as one batch instead of
// sequential Point calls leaves the committed trace unchanged under a
// strategy that ignores Candidate.Run, and saves every handoff but the
// batch's last.
func TestPointBatchSavesHandoffs(t *testing.T) {
	ops := func() []*Op {
		return []*Op{
			{Kind: trace.KindBB, Obj: 0x1},
			{Kind: trace.KindStore, Obj: 0x2},
			{Kind: trace.KindStore, Obj: 0x3},
			{Kind: trace.KindStore, Obj: 0x4},
		}
	}
	run := func(batched bool) ([]trace.Event, *Result) {
		c := &collector{}
		res := Run(func(th *Thread) {
			for i := 0; i < 5; i++ {
				if batched {
					th.PointBatch(ops()...)
					continue
				}
				for _, op := range ops() {
					th.Point(op)
				}
			}
		}, Config{Strategy: Lowest{}, Observers: []Observer{c}})
		return c.evs, res
	}
	batchEvs, batched := run(true)
	pointEvs, points := run(false)
	if !reflect.DeepEqual(batchEvs, pointEvs) {
		t.Fatal("declaring a batch changed the committed trace under a Run-blind strategy")
	}
	if points.Handoffs != points.Steps {
		t.Fatalf("sequential Points should hand off every step: %d handoffs, %d steps", points.Handoffs, points.Steps)
	}
	if want := points.Handoffs - 5*3; batched.Handoffs != want {
		t.Fatalf("batched run made %d handoffs, want %d", batched.Handoffs, want)
	}
}

// TestRunCancellationUnwindsMidBatchCleanly: cancellation lands at the
// next pick, which may fall between two ops of a declared batch; the
// thread — still blocked in PointBatch — must unwind cleanly through the
// stop channel, with the batch cut right after the op whose effect
// cancelled.
func TestRunCancellationUnwindsMidBatchCleanly(t *testing.T) {
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
	}, Config{Strategy: Lowest{}, Observers: []Observer{c}, Ctx: ctx})
	if res.Failure == nil || res.Failure.Reason != ReasonCancelled {
		t.Fatalf("expected cancellation, got %v", res.Failure)
	}
	// ThreadStart, the block marker and the cancelling store.
	if res.Steps != 3 || c.evs[2].Obj != 0x2 {
		t.Fatalf("cancellation landed after %d steps %+v, want right after the cancelling op",
			res.Steps, c.evs)
	}
}

// TestRunCancellationNeverLandsMidRunBatch: every run is one step, so
// under RandomMP — whose budget once granted a whole declared batch as
// one run — cancelling the context from inside a batch op's effect lands
// at the very next pick: the cancelling op commits whole, and neither
// the rest of the batch nor the yields after it commit.
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
	// ThreadStart, the block marker and the cancelling store.
	if res.Steps != 3 || len(c.evs) != 3 || c.evs[2].Obj != 0x2 {
		t.Fatalf("cancellation landed after %d steps %+v, want right after the cancelling op",
			res.Steps, c.evs)
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

// TestPointBatchInterruptible: a strategy can interleave another thread
// between two ops of a declared batch — batching amortizes handoffs
// without coarsening the schedule space.
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

// alternate is a strategy that switches threads whenever more than one
// candidate is runnable.
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
