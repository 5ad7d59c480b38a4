package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
	"repro/internal/trace"
)

func TestSimplifyPreservesFailure(t *testing.T) {
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	if !res.Reproduced {
		t.Fatal("setup: not reproduced")
	}
	simple, spent := Simplify(prog, rec, res.Order, 0)
	if spent <= 0 {
		t.Fatal("simplify did no work")
	}
	// The simplified schedule must still reproduce the same bug.
	out := Reproduce(prog, rec, simple)
	if out.Failure == nil || out.Failure.BugID != "atom-bug" {
		t.Fatalf("simplified schedule lost the bug: %v", out.Failure)
	}
	if Switches(simple) > Switches(res.Order) {
		t.Fatalf("simplify increased switches: %d -> %d", Switches(res.Order), Switches(simple))
	}
	t.Logf("switches %d -> %d in %d re-executions", Switches(res.Order), Switches(simple), spent)
}

func TestSimplifyReducesSearchNoise(t *testing.T) {
	// The order-violation bug needs exactly one adverse switch; the
	// simplified schedule should be close to minimal.
	prog := orderBugProg()
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("order-bug")})
	if !res.Reproduced {
		t.Fatal("setup: not reproduced")
	}
	simple, _ := Simplify(prog, rec, res.Order, 0)
	if Switches(simple) > Switches(res.Order) {
		t.Fatal("simplification made the schedule worse")
	}
	out := Reproduce(prog, rec, simple)
	if out.Failure == nil || out.Failure.BugID != "order-bug" {
		t.Fatalf("lost the bug: %v", out.Failure)
	}
}

func TestSimplifyRespectsBudget(t *testing.T) {
	prog := atomBugProg(4)
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	if !res.Reproduced {
		t.Fatal("setup: not reproduced")
	}
	_, spent := Simplify(prog, rec, res.Order, 3)
	if spent > 3 {
		t.Fatalf("budget exceeded: %d", spent)
	}
}

func TestSimplifyKeepsOrderWithoutBug(t *testing.T) {
	// An order that does not fit its recording diverges at its first
	// pick: there is no bug to preserve, so Simplify returns the order
	// as given after the one re-execution that found that out.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	order := &trace.FullOrder{Order: []trace.TID{99, 1, 99, 1}}
	if f := Reproduce(prog, rec, order).Failure; f == nil || f.IsBug() {
		t.Fatalf("setup: misfit order failed with %v, want a non-bug failure", f)
	}
	simple, spent := Simplify(prog, rec, order, 0)
	if spent != 1 || !reflect.DeepEqual(simple.Order, order.Order) {
		t.Fatalf("Simplify = %v in %d re-executions, want the input order in 1", simple.Order, spent)
	}
}

func TestSwitchesCounting(t *testing.T) {
	cases := []struct {
		order []trace.TID
		want  int
	}{
		{nil, 0},
		{[]trace.TID{1}, 0},
		{[]trace.TID{1, 1, 1}, 0},
		{[]trace.TID{1, 2}, 1},
		{[]trace.TID{1, 2, 1, 2}, 3},
		{[]trace.TID{0, 0, 1, 1, 0}, 2},
	}
	for _, c := range cases {
		if got := Switches(&trace.FullOrder{Order: c.order}); got != c.want {
			t.Errorf("Switches(%v) = %d, want %d", c.order, got, c.want)
		}
	}
}

func TestSpliceRuns(t *testing.T) {
	cur := []trace.TID{1, 1, 2, 2, 1, 1, 3}
	// Move thread 1's run at index 4 to position 2.
	got := spliceRuns(cur, 2, 4)
	want := []trace.TID{1, 1, 1, 1, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spliceRuns = %v, want %v", got, want)
		}
	}
	// The input must not be modified.
	if cur[2] != 2 {
		t.Fatal("spliceRuns mutated its input")
	}
}

func TestSwitchHelpers(t *testing.T) {
	cur := []trace.TID{1, 1, 2, 3, 3}
	if switchAfter(cur, 0) != 2 {
		t.Fatal("switchAfter(0) wrong")
	}
	if switchAfter(cur, 2) != 3 {
		t.Fatal("switchAfter(2) wrong")
	}
	if switchAfter(cur, 3) != -1 {
		t.Fatal("switchAfter at tail should be -1")
	}
	if nextRunOf(cur, 3, 0) != 3 {
		t.Fatal("nextRunOf wrong")
	}
	if nextRunOf(cur, 9, 0) != -1 {
		t.Fatal("nextRunOf missing thread should be -1")
	}
}

func TestRootCausesReported(t *testing.T) {
	// A bug that needs at least one flip must report the reversed races.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	if !res.Reproduced {
		t.Fatal("setup: not reproduced")
	}
	if len(res.RootCauses) != res.Flips {
		t.Fatalf("root causes (%d) != flips (%d)", len(res.RootCauses), res.Flips)
	}
	for _, rc := range res.RootCauses {
		if rc.First.TID == rc.Second.TID {
			t.Fatalf("degenerate root cause %v", rc)
		}
	}
}

// TestSimplifyIgnoresProvenance: two corpus programs each host two
// bugs, so Simplify must keep the bug the input order reproduces, and
// it must find it the same way whether the recording still carries its
// production outcome (in memory) or was read back from its serialized
// form (which does not persist it).
func TestSimplifyIgnoresProvenance(t *testing.T) {
	for _, id := range []string{"mysql-169", "mysql-791", "apache-25520", "apache-21285"} {
		prog, ok := apps.ProgramForBug(id)
		if !ok {
			t.Fatalf("%s: program missing", id)
		}
		oracle := MatchBugID(id)
		var rec *Recording
		var opts Options
		for seed := int64(0); rec == nil; seed++ {
			if seed >= 2000 {
				t.Fatalf("%s never manifested in 2000 seeds", id)
			}
			opts = Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 300_000}
			if r := Record(prog, opts); r.BugFailure() != nil && oracle(r.BugFailure()) {
				rec = r
			}
		}
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", id, err)
		}
		rr, err := ReadRecording(&buf, opts)
		if err != nil {
			t.Fatalf("%s: read: %v", id, err)
		}
		res := Replay(prog, rr, ReplayOptions{Feedback: true, Oracle: oracle, Workers: 1})
		if !res.Reproduced {
			t.Fatalf("%s: setup: not reproduced in %d attempts", id, res.Attempts)
		}
		inMemory, spentMem := Simplify(prog, rec, res.Order, 50)
		serialized, spentSer := Simplify(prog, rr, res.Order, 50)
		if !reflect.DeepEqual(inMemory.Order, serialized.Order) || spentMem != spentSer {
			t.Fatalf("%s: simplification depends on provenance: in-memory %d switches in %d re-executions, serialized %d in %d",
				id, Switches(inMemory), spentMem, Switches(serialized), spentSer)
		}
		if f := Reproduce(prog, rr, serialized).Failure; f == nil || !oracle(f) {
			t.Fatalf("%s: simplified order lost the bug: %v", id, f)
		}
	}
}

// TestSimplifyCheckpointedRecording: on a recording that retained a
// checkpoint, Reproduce runs the first cp.Step events with the world
// Live and serves the cut input log after them, so a splice that
// reorders that prefix draws inputs in a different global order than
// production did. The oracle judges every candidate under those
// semantics, so for each checkpointed start shape the simplified order
// must still re-manifest the bug through Reproduce, and Simplify must
// still remove switches.
func TestSimplifyCheckpointedRecording(t *testing.T) {
	for _, id := range []string{"mysql-169", "fft-barrier", "pbzip2-order", "openldap-deadlock", "apache-25520"} {
		classic := startShapeSeed(t, id)
		prog, _ := apps.ProgramForBug(id)
		oracle := MatchBugID(id)
		for _, sh := range startShapes {
			if !sh.checkpoint {
				continue
			}
			rec := Record(prog, withRing(classic, sh.ring))
			res := Replay(prog, rec, ReplayOptions{Feedback: true, MaxAttempts: 200, Oracle: oracle})
			if !res.Reproduced {
				t.Fatalf("%s %s: setup: not reproduced in %d attempts", id, sh.name, res.Attempts)
			}
			simple, spent := Simplify(prog, rec, res.Order, 0)
			f := Reproduce(prog, rec, simple).Failure
			if f == nil || !oracle(f) {
				t.Fatalf("%s %s: simplified order lost the bug: %v", id, sh.name, f)
			}
			if want := Reproduce(prog, rec, res.Order).Failure; f.Reason != want.Reason || f.BugID != want.BugID {
				t.Fatalf("%s %s: simplified order fails with %v, input order with %v", id, sh.name, f, want)
			}
			if Switches(simple) >= Switches(res.Order) {
				t.Fatalf("%s %s: switches %d -> %d, want fewer", id, sh.name, Switches(res.Order), Switches(simple))
			}
			t.Logf("%s %s: switches %d -> %d in %d re-executions", id, sh.name, Switches(res.Order), Switches(simple), spent)
		}
	}
}
