package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sketch"
)

func neverOracle(*sched.Failure) bool { return false }

// hookProg is a single-threaded program that calls hook between steps —
// a window for a test to cancel the search's context from *inside* a
// running attempt, deterministically.
func hookProg(hook func()) *appkit.Program {
	return &appkit.Program{
		Name: "hookprog",
		Run: func(env *appkit.Env) {
			th := env.T
			c := mem.NewCell("c", 0)
			for i := 0; i < 30; i++ {
				c.Store(th, uint64(i))
				th.Yield()
				if hook != nil {
					hook()
				}
			}
		},
	}
}

func TestReplayCancelledMidAttempt(t *testing.T) {
	// Cancel the context from inside attempt 0's execution: the attempt
	// must surface as "cancelled" on every observability surface and
	// count in Stats.Cancelled — its outcome describes a truncated run.
	var armed, fired atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := hookProg(func() {
		if armed.Load() && fired.CompareAndSwap(false, true) {
			cancel()
		}
	})
	rec := Record(prog, Options{Scheme: sketch.SYNC, ScheduleSeed: 1, WorldSeed: 1, MaxSteps: 100_000})
	armed.Store(true)

	reg := obs.NewRegistry()
	var buf bytes.Buffer
	res := ReplayContext(ctx, prog, rec, ReplayOptions{
		Oracle:      neverOracle,
		MaxAttempts: 50,
		Workers:     1,
		Metrics:     reg,
		Trace:       obs.NewTraceSink(&buf),
	})
	if res.Err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", res.Err)
	}
	if res.Reproduced {
		t.Fatal("cancelled search reproduced")
	}
	if res.Attempts != 1 || res.Stats.Cancelled != 1 {
		t.Fatalf("attempts=%d cancelled=%d, want 1/1", res.Attempts, res.Stats.Cancelled)
	}
	if got := reg.Counter("pres_replay_cancelled_total").Value(); got != 1 {
		t.Fatalf("pres_replay_cancelled_total = %d, want 1", got)
	}
	if got := reg.Counter("pres_replay_searches_total", "result", "cancelled").Value(); got != 1 {
		t.Fatalf("searches_total{result=cancelled} = %d, want 1", got)
	}
	trace := buf.String()
	if !strings.Contains(trace, `"outcome":"cancelled"`) || !strings.Contains(trace, `"cancelled":true`) {
		t.Fatalf("trace missing cancelled markers:\n%s", trace)
	}
}

func TestReplayCancelCommitsDeterministicPrefix(t *testing.T) {
	// Cancelling between attempts at Workers=1 leaves a deterministic
	// committed prefix: exactly the attempts that finished before the
	// cancel, with identical stats across runs.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	run := func() *ReplayResult {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return ReplayContext(ctx, prog, rec, ReplayOptions{
			Feedback:    true,
			Oracle:      neverOracle,
			MaxAttempts: 100,
			Workers:     1,
			OnAttempt: func(i int, mode, outcome string) {
				if i == 3 {
					cancel()
				}
			},
		})
	}
	a, b := run(), run()
	if a.Err != context.Canceled || b.Err != context.Canceled {
		t.Fatalf("Err = %v / %v, want context.Canceled", a.Err, b.Err)
	}
	if a.Attempts != 3 {
		t.Fatalf("attempts = %d, want exactly the 3 committed before the cancel", a.Attempts)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cancelled prefix not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestReplayCancelDrainsWorkersWithoutLeak(t *testing.T) {
	// Mid-search cancellation at Workers=8 must drain the whole pool:
	// after ReplayContext returns, no search goroutine may linger.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int32
		res := ReplayContext(ctx, prog, rec, ReplayOptions{
			Feedback:    true,
			Oracle:      neverOracle,
			MaxAttempts: 400,
			Workers:     8,
			OnAttempt: func(i int, mode, outcome string) {
				if n.Add(1) == 5 {
					cancel()
				}
			},
		})
		cancel()
		if res.Err != context.Canceled {
			t.Fatalf("round %d: Err = %v, want context.Canceled", round, res.Err)
		}
		if res.Attempts >= 400 {
			t.Fatalf("round %d: search ran to budget despite cancel", round)
		}
	}
	// The runtime may briefly keep service goroutines around; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled searches",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplayPreExpiredDeadline(t *testing.T) {
	// A context dead on arrival dispatches nothing and reports the
	// deadline distinctly from plain cancellation.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := ReplayContext(ctx, prog, rec, ReplayOptions{
		Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 4,
	})
	if res.Err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", res.Err)
	}
	if res.Attempts != 0 || res.Reproduced {
		t.Fatalf("dead-on-arrival search did work: %+v", res)
	}
}

func TestRecordContextCancelled(t *testing.T) {
	// RecordContext under a dead context yields a recording whose result
	// is a ReasonCancelled failure — never mistaken for a manifested bug.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := RecordContext(ctx, atomBugProg(3), Options{
		Scheme: sketch.SYNC, ScheduleSeed: 1, WorldSeed: 1, MaxSteps: 100_000,
	})
	if rec.Result.Failure == nil || rec.Result.Failure.Reason != sched.ReasonCancelled {
		t.Fatalf("failure = %v, want ReasonCancelled", rec.Result.Failure)
	}
	if rec.BugFailure() != nil {
		t.Fatal("cancelled recording reports a bug failure")
	}
}
