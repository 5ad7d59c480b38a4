package sketch

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/ssync"
	"repro/internal/trace"
	"repro/internal/vsys"
)

func TestStringParseRoundTrip(t *testing.T) {
	for _, s := range All() {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Fatalf("Parse(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := Parse("sync"); err != nil {
		t.Fatal("Parse should be case-insensitive")
	}
	for _, name := range []string{"NOPE", "hybrid"} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse(%q) should reject an unknown name", name)
		}
	}
}

func TestRecordsFilters(t *testing.T) {
	cases := []struct {
		scheme Scheme
		kind   trace.Kind
		want   bool
	}{
		{BASE, trace.KindLock, false},
		{BASE, trace.KindSyscall, false},
		{SYNC, trace.KindLock, true},
		{SYNC, trace.KindBarrier, true},
		{SYNC, trace.KindLoad, false},
		{SYNC, trace.KindSyscall, false},
		{SYS, trace.KindSyscall, true},
		{SYS, trace.KindSpawn, true},
		{SYS, trace.KindLock, false},
		{FUNC, trace.KindFuncEnter, true},
		{FUNC, trace.KindFuncExit, true},
		{FUNC, trace.KindBB, false},
		{BB, trace.KindBB, true},
		{BB, trace.KindFuncEnter, false},
		{RW, trace.KindLoad, true},
		{RW, trace.KindStore, true},
		{RW, trace.KindLock, true},
		{RW, trace.KindSyscall, true},
		{RW, trace.KindBB, true}, // blocks carry the private accesses RW must pay for
		{RW, trace.KindYield, false},
	}
	for _, c := range cases {
		if got := c.scheme.Records(c.kind); got != c.want {
			t.Errorf("%v.Records(%v) = %v, want %v", c.scheme, c.kind, got, c.want)
		}
	}
}

// mixedProgram exercises every event class once or more.
func mixedProgram(th *sched.Thread) {
	w := vsys.NewWorld(1)
	m := ssync.NewMutex("m")
	x := mem.NewCell("x", 0)
	child := th.Spawn("c", func(ct *sched.Thread) {
		m.Lock(ct)
		x.Store(ct, 1)
		m.Unlock(ct)
	})
	m.Lock(th)
	x.Load(th)
	m.Unlock(th)
	w.Now(th)
	th.Join(child)
}

func record(t *testing.T, s Scheme) *Recorder {
	t.Helper()
	r := NewRecorder(s)
	res := sched.Run(mixedProgram, sched.Config{
		Strategy:  sched.Lowest{},
		Observers: []sched.Observer{r},
	})
	if res.Failure != nil {
		t.Fatalf("%v: %v", s, res.Failure)
	}
	return r
}

func TestRecorderFiltersByScheme(t *testing.T) {
	base := record(t, BASE)
	if base.Log().Len() != 0 {
		t.Fatalf("BASE recorded %d entries", base.Log().Len())
	}
	syncR := record(t, SYNC)
	for _, e := range syncR.Log().Entries {
		if !e.Kind.IsSync() {
			t.Fatalf("SYNC log has %v", e.Kind)
		}
	}
	if syncR.Log().Len() == 0 {
		t.Fatal("SYNC recorded nothing")
	}
	sysR := record(t, SYS)
	foundNow := false
	for _, e := range sysR.Log().Entries {
		if e.Kind == trace.KindSyscall {
			foundNow = true
		}
	}
	if !foundNow {
		t.Fatal("SYS log missing the syscall")
	}
	rw := record(t, RW)
	if rw.Log().Len() <= syncR.Log().Len() {
		t.Fatal("RW should record strictly more than SYNC here")
	}
}

func TestRecorderTotalOpsAndDensity(t *testing.T) {
	r := record(t, SYNC)
	l := r.Log()
	if l.TotalOps == 0 {
		t.Fatal("TotalOps not counted")
	}
	if uint64(l.Len()) > l.TotalOps {
		t.Fatal("recorded more entries than ops")
	}
	if d := float64(l.Len()) / float64(l.TotalOps); d <= 0 || d > 1 {
		t.Fatalf("density = %v entries per op", d)
	}
}

func TestRecorderChargesCost(t *testing.T) {
	r := NewRecorder(RW)
	res := sched.Run(mixedProgram, sched.Config{
		Strategy:  sched.Lowest{},
		Observers: []sched.Observer{r},
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	want := r.Log().Records*RecordCost + r.Log().TotalOps*FilterCost
	if res.ExtraCost != want {
		t.Fatalf("ExtraCost = %d, want %d", res.ExtraCost, want)
	}

	// BASE pays only the instrumentation filter.
	rb := NewRecorder(BASE)
	resB := sched.Run(mixedProgram, sched.Config{
		Strategy:  sched.Lowest{},
		Observers: []sched.Observer{rb},
	})
	if resB.ExtraCost != rb.Log().TotalOps*FilterCost {
		t.Fatalf("BASE ExtraCost = %d, want filter only", resB.ExtraCost)
	}
}

func TestOverheadOrdering(t *testing.T) {
	// The schemes' modelled overheads must be monotone:
	// BASE = 0 <= SYS,SYNC <= RW on this mixed workload.
	overhead := func(s Scheme) float64 {
		r := NewRecorder(s)
		res := sched.Run(mixedProgram, sched.Config{
			Strategy:  sched.Lowest{},
			Observers: []sched.Observer{r},
		})
		if res.Failure != nil {
			t.Fatalf("%v: %v", s, res.Failure)
		}
		return res.Overhead()
	}
	if b := overhead(BASE); b <= 0 || b > overhead(SYNC) {
		t.Fatalf("BASE overhead %v must be positive (substrate) and below SYNC", b)
	}
	if !(overhead(SYNC) < overhead(RW)) {
		t.Fatal("SYNC overhead must be below RW")
	}
}

func TestWeight(t *testing.T) {
	block := trace.Event{Kind: trace.KindBB, Arg: 500}
	if got := RW.Weight(block); got != 500 {
		t.Fatalf("RW block weight = %d, want 500", got)
	}
	if got := BB.Weight(block); got != 1 {
		t.Fatalf("BB block weight = %d, want 1", got)
	}
	if got := SYNC.Weight(block); got != 0 {
		t.Fatalf("SYNC block weight = %d, want 0", got)
	}
	if got := RW.Weight(trace.Event{Kind: trace.KindBB}); got != 1 {
		t.Fatalf("RW zero-arg block weight = %d, want 1", got)
	}
	if got := RW.Weight(trace.Event{Kind: trace.KindStore}); got != 1 {
		t.Fatalf("RW store weight = %d, want 1", got)
	}
}

func TestRecorderWeightedCost(t *testing.T) {
	r := NewRecorder(RW)
	extra := r.OnEvent(trace.Event{Kind: trace.KindBB, Arg: 100})
	if extra != 100*RecordCost+FilterCost {
		t.Fatalf("block extra cost = %d, want %d", extra, 100*RecordCost+FilterCost)
	}
	if r.Log().Records != 100 || r.Log().Len() != 1 {
		t.Fatalf("records=%d entries=%d", r.Log().Records, r.Log().Len())
	}
}

func TestEncodedSize(t *testing.T) {
	r := record(t, SYNC)
	n := EncodedSize(r.Log())
	if n <= 0 {
		t.Fatal("encoded size must be positive")
	}
	empty := EncodedSize(&trace.SketchLog{Scheme: "BASE"})
	if n <= empty {
		t.Fatal("non-empty log should encode larger than empty")
	}
}

func TestInputEncodedSize(t *testing.T) {
	l := &trace.InputLog{}
	l.Append(trace.InputRecord{TID: 0, Call: vsys.CallRand, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	if InputEncodedSize(l) <= InputEncodedSize(&trace.InputLog{}) {
		t.Fatal("input size accounting broken")
	}
}
