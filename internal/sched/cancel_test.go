package sched

import (
	"context"
	"testing"
)

func TestRunContextCancelMidRun(t *testing.T) {
	// Cancelling the config context mid-run fails the execution with
	// ReasonCancelled at the next grant point — never a bug, and the
	// scheduler still stops every thread's coroutine (Run returning
	// proves shutdown completed).
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	res := Run(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Yield()
			steps++
			if steps == 5 {
				cancel()
			}
		}
	}, Config{Strategy: Lowest{}, Ctx: ctx})
	if res.Failure == nil || res.Failure.Reason != ReasonCancelled {
		t.Fatalf("failure = %v, want ReasonCancelled", res.Failure)
	}
	if res.Failure.IsBug() {
		t.Fatal("cancellation must never classify as a manifested bug")
	}
	if steps >= 100 {
		t.Fatal("run was not cut short by the cancel")
	}
	if got := res.Failure.Reason.String(); got != "cancelled" {
		t.Fatalf("Reason.String() = %q, want %q", got, "cancelled")
	}
}

func TestRunPreCancelledContextStopsAtFirstGrant(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res := Run(func(th *Thread) {
		th.Yield()
		ran = true
	}, Config{Strategy: Lowest{}, Ctx: ctx})
	if res.Failure == nil || res.Failure.Reason != ReasonCancelled {
		t.Fatalf("failure = %v, want ReasonCancelled", res.Failure)
	}
	if ran {
		t.Fatal("body ran past the first grant under a dead context")
	}
}

func TestRunNilContextHasNoCancellation(t *testing.T) {
	// A nil Ctx (and a background context, whose Done is nil) keeps the
	// grant loop select-free: the run completes exactly as before.
	for _, ctx := range []context.Context{nil, context.Background()} {
		res := Run(func(th *Thread) {
			for i := 0; i < 10; i++ {
				th.Yield()
			}
		}, Config{Strategy: Lowest{}, Ctx: ctx})
		if res.Failure != nil {
			t.Fatalf("ctx=%v: unexpected failure %v", ctx, res.Failure)
		}
	}
}
