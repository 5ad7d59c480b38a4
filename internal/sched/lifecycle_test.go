package sched

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// Every thread is a coroutine with a goroutine of its own, so every way
// a run can end must end every thread. These tests pin that, and that
// what Run returns does not keep the run's threads reachable.

// abortAfter is a strategy that picks the lowest candidate for n steps,
// then aborts (a replay strategy whose schedule can no longer be
// honored).
type abortAfter uint64

func (n abortAfter) Pick(view *PickView) (trace.TID, bool) {
	if view.Step >= uint64(n) {
		return trace.NoTID, false
	}
	return view.Candidates[0].TID, true
}

// spinner is a thread body that yields forever; only the end of the run
// stops it.
func spinner(th *Thread) {
	for {
		th.Yield()
	}
}

// waitGoroutines waits, boundedly, for the goroutine count to return to
// base. A coroutine's goroutine ends when its body returns, so this
// normally holds at once.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutine ends a run every way it can end, each with
// threads parked, asleep or blocked at the end, and requires the
// goroutine count to return to its baseline after each.
func TestRunLeavesNoGoroutine(t *testing.T) {
	cases := []struct {
		name   string
		want   FailureReason // 0: clean exit
		root   func(cancel context.CancelFunc) func(*Thread)
		strat  Strategy // nil: alternate, which keeps every thread moving
		steps  uint64   // MaxSteps, 0 for the default
		cancel bool     // run under a cancellable context
	}{
		{name: "normal-exit", root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				a := th.Spawn("a", func(t *Thread) { t.Yield() })
				b := th.Spawn("b", func(t *Thread) { t.PointBatch(&Op{Kind: trace.KindBB}, &Op{Kind: trace.KindStore}) })
				th.Join(a)
				th.Join(b)
			}
		}},
		{name: "assert", want: ReasonAssert, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				th.Yield()
				th.Fail("bug", "asserted with a sibling parked")
			}
		}},
		{name: "assert-with-deferred-point", want: ReasonAssert, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				// The failing panic parks once more in this defer (a
				// deferred unlock, say) before it unwinds the thread.
				defer th.Point(&Op{Kind: trace.KindUnlock})
				th.Yield()
				th.Fail("bug", "asserted with a deferred point")
			}
		}},
		{name: "crash", want: ReasonCrash, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				th.Yield()
				var m map[int]int
				m[0] = 1 // a runtime panic, not a Failure
			}
		}},
		{name: "deadlock", want: ReasonDeadlock, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("sleeper", func(t *Thread) {
					t.Point(&Op{Kind: trace.KindWait, Effect: func(ctx *EffectCtx) { ctx.Sleep() }})
				})
				th.Spawn("blocked", func(t *Thread) {
					t.Point(&Op{Kind: trace.KindLock, Enabled: func() bool { return false }})
				})
				th.Point(&Op{Kind: trace.KindLock, Enabled: func() bool { return false }})
			}
		}},
		{name: "step-limit", want: ReasonStepLimit, steps: 50, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				spinner(th)
			}
		}},
		{name: "diverged", want: ReasonDiverged, strat: abortAfter(20), root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				spinner(th)
			}
		}},
		{name: "cancelled", want: ReasonCancelled, cancel: true, root: func(cancel context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				for i := 0; i < 10; i++ {
					th.Yield()
				}
				cancel()
				spinner(th)
			}
		}},
		{name: "cancelled-mid-batch", want: ReasonCancelled, cancel: true, root: func(cancel context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("spin", spinner)
				th.PointBatch(
					&Op{Kind: trace.KindBB},
					&Op{Kind: trace.KindStore, Effect: func(*EffectCtx) { cancel() }},
					&Op{Kind: trace.KindStore},
				)
				spinner(th)
			}
		}},
		{name: "deferred-point-while-stopped", want: ReasonStepLimit, steps: 40, root: func(context.CancelFunc) func(*Thread) {
			return func(th *Thread) {
				th.Spawn("deferrer", func(t *Thread) {
					// The stop unwinds through this defer, whose Point
					// must itself unwind instead of parking again.
					defer t.Yield()
					spinner(t)
				})
				spinner(th)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Strategy: tc.strat, MaxSteps: tc.steps}
			if cfg.Strategy == nil {
				cfg.Strategy = alternate{}
			}
			if tc.cancel {
				cfg.Ctx = ctx
			}
			res := Run(tc.root(cancel), cfg)
			switch {
			case tc.want == 0 && res.Failure != nil:
				t.Fatalf("unexpected failure %v", res.Failure)
			case tc.want != 0 && (res.Failure == nil || res.Failure.Reason != tc.want):
				t.Fatalf("failure = %v, want %v", res.Failure, tc.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestResultDoesNotPinRun: a held *Result must not keep the run's
// scheduler, threads or coroutines reachable, and through them the
// program's heap. The object below is reachable only from the root
// function's closure, so once Run has returned it must be collectable
// while the result is still in use.
func TestResultDoesNotPinRun(t *testing.T) {
	collected := make(chan struct{})
	res := func() *Result {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { close(collected) })
		return Run(func(th *Thread) {
			th.Spawn("child", func(t *Thread) { t.Yield() })
			th.Yield()
			big[0]++
		}, Config{Strategy: Lowest{}})
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if res.Failure != nil || res.Steps == 0 {
				t.Fatalf("result = %+v", res)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the root closure's heap survived %d collections while the result (%d steps) was held", 20, res.Steps)
}
