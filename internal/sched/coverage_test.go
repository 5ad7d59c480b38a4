package sched

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestFailureReasonStrings(t *testing.T) {
	cases := map[FailureReason]string{
		ReasonAssert:    "assertion",
		ReasonCrash:     "crash",
		ReasonDeadlock:  "deadlock",
		ReasonStepLimit: "step-limit",
		ReasonDiverged:  "diverged",
		reasonStopped:   "stopped",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if !strings.HasPrefix(FailureReason(99).String(), "reason(") {
		t.Error("unknown reason should render numerically")
	}
}

func TestPickViewFind(t *testing.T) {
	v := &PickView{Candidates: []Candidate{
		{TID: 1, Kind: trace.KindLoad},
		{TID: 3, Kind: trace.KindLock},
	}}
	c, ok := v.Find(3)
	if !ok || c.Kind != trace.KindLock {
		t.Fatalf("Find(3) = %v, %v", c, ok)
	}
	if _, ok := v.Find(9); ok {
		t.Fatal("Find of absent tid succeeded")
	}
	if !v.Has(1) || v.Has(9) {
		t.Fatal("Has wrong")
	}
}

func TestResultOverheadZeroBase(t *testing.T) {
	r := &Result{}
	if r.Overhead() != 0 {
		t.Fatal("zero-base overhead should be 0")
	}
	r.BaseCost, r.ExtraCost = 100, 25
	if r.Overhead() != 0.25 {
		t.Fatalf("overhead = %v", r.Overhead())
	}
}

func TestFindCycleShapes(t *testing.T) {
	// Simple two-cycle.
	c := findCycle(map[trace.TID]trace.TID{1: 2, 2: 1})
	if len(c) != 2 {
		t.Fatalf("two-cycle = %v", c)
	}
	// Chain into a cycle: 0 -> 1 -> 2 -> 1; the cycle is {1,2}.
	c = findCycle(map[trace.TID]trace.TID{0: 1, 1: 2, 2: 1})
	if len(c) != 2 {
		t.Fatalf("tail+cycle = %v", c)
	}
	// Pure chain, no cycle.
	if c := findCycle(map[trace.TID]trace.TID{0: 1, 1: 2}); c != nil {
		t.Fatalf("chain produced cycle %v", c)
	}
	// Empty graph.
	if c := findCycle(nil); c != nil {
		t.Fatalf("empty graph produced cycle %v", c)
	}
	// Self-loop.
	if c := findCycle(map[trace.TID]trace.TID{4: 4}); len(c) != 1 || c[0] != 4 {
		t.Fatalf("self-loop = %v", c)
	}
	// Deterministic across equivalent graphs: lowest start wins.
	a := findCycle(map[trace.TID]trace.TID{5: 6, 6: 5, 1: 2, 2: 1})
	if len(a) != 2 || (a[0] != 1 && a[0] != 2) {
		t.Fatalf("cycle choice not deterministic-lowest: %v", a)
	}
}

func TestThreadAccessors(t *testing.T) {
	res := Run(func(th *Thread) {
		if th.ID() != 0 || th.Name() != "main" {
			th.Fail("t", "main identity wrong: %d %q", th.ID(), th.Name())
		}
		c := th.Spawn("worker", func(ct *Thread) {
			if ct.Name() != "worker" || ct.ID() != 1 {
				ct.Fail("t", "child identity wrong")
			}
		})
		th.Join(c)
	}, Config{Strategy: Lowest{}})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestEffectCtxNow(t *testing.T) {
	var at uint64
	res := Run(func(th *Thread) {
		th.Yield()
		th.Point(&Op{Kind: trace.KindYield, Effect: func(ctx *EffectCtx) { at = ctx.Now() }})
	}, Config{Strategy: Lowest{}})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	// Now() runs during step 3's effect (start, yield, yield).
	if at != 3 {
		t.Fatalf("ctx.Now() = %d, want 3", at)
	}
}

func TestOpDescribeVariants(t *testing.T) {
	plain := &Op{Kind: trace.KindLock, Obj: 5}
	if !strings.Contains(plain.describe(), "lock") {
		t.Fatal("plain describe missing kind")
	}
	named := &Op{Kind: trace.KindLock, Obj: 5, Desc: "lock m"}
	if !strings.Contains(named.describe(), "lock m") {
		t.Fatal("named describe missing desc")
	}
	var nilOp *Op
	if nilOp.describe() != "?" {
		t.Fatal("nil describe")
	}
}

// TestDeadlockReportNamesHolder: a parked op whose BlockedOn names a
// thread gets that thread's id and name appended in the deadlock
// report, next to its own description.
func TestDeadlockReportNamesHolder(t *testing.T) {
	holder := trace.NoTID
	res := Run(func(th *Thread) {
		th.Spawn("w", func(w *Thread) {
			w.Point(&Op{Kind: trace.KindLock, Obj: 5, Desc: "lock m",
				Effect: func(ctx *EffectCtx) { holder = ctx.Self().ID() }})
			w.Point(&Op{Kind: trace.KindLock, Obj: 6, Desc: "lock n",
				Enabled: func() bool { return false }})
		})
		th.Point(&Op{Kind: trace.KindLock, Obj: 5, Desc: "lock m",
			Enabled:   func() bool { return false },
			BlockedOn: func() trace.TID { return holder }})
	}, Config{Strategy: Lowest{}})
	f := res.Failure
	if f == nil || f.Reason != ReasonDeadlock {
		t.Fatalf("failure = %v, want deadlock", f)
	}
	want := "lock m (lock obj=0x5) held by t1(w)"
	if len(f.Stuck) != 2 || f.Stuck[0].What != want || !strings.Contains(f.Msg, want) {
		t.Fatalf("report does not name the holder as %q:\n%s\n%+v", want, f.Msg, f.Stuck)
	}
	if strings.Count(f.Msg, "held by") != 1 {
		t.Fatalf("an op without BlockedOn gained a holder: %s", f.Msg)
	}
}

func TestOrderStrategyConsumed(t *testing.T) {
	s := &OrderStrategy{Order: []trace.TID{0, 0}}
	v := &PickView{Candidates: []Candidate{{TID: 0, Kind: trace.KindYield}}}
	s.Pick(v)
	if s.pos != 1 {
		t.Fatalf("consumed = %d", s.pos)
	}
}

func TestRandomMPZeroValue(t *testing.T) {
	// The zero value must be usable (lazy init path).
	s := &RandomMP{}
	res := Run(func(th *Thread) { th.Yield() }, Config{Strategy: s})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	if s.P != 1 {
		t.Fatalf("zero-value P normalized to %d", s.P)
	}
}

func TestRandomMPPreemptionPath(t *testing.T) {
	// More threads than processors with high preemption exercises the
	// rotation path; the run must still complete.
	res := Run(program(6, 20), Config{Strategy: NewRandomMP(2, 0.5, 9)})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestNewRandomMPClampsP(t *testing.T) {
	s := NewRandomMP(0, 0, 1)
	if s.P != 1 {
		t.Fatalf("P = %d, want clamp to 1", s.P)
	}
}
