package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// flipSetIDForm is flip_set_id as OBSERVABILITY.md documents it: one
// "|addr:tA#cA>tB#cB" flip key per flip, in discovery order.
var flipSetIDForm = regexp.MustCompile(`^(\|0x[0-9a-f]+:t[0-9]+#[0-9]+>t[0-9]+#[0-9]+)*$`)

// TestTraceFlipSetID: the trace's flip_set_id, built only when a trace
// is attached, keeps its documented form at every depth. barnes-order's
// golden seed 250 reproduces on attempt 29 with a depth-2 flip set, and
// that attempt's id is pinned byte for byte.
func TestTraceFlipSetID(t *testing.T) {
	const bug = "barnes-order"
	prog, ok := apps.ProgramForBug(bug)
	if !ok {
		t.Fatalf("%s: program missing", bug)
	}
	var buf bytes.Buffer
	res := Replay(prog, Record(prog, trajectoryOptions(250)),
		ReplayOptions{Feedback: true, Oracle: MatchBugID(bug), Trace: obs.NewTraceSink(&buf)})
	if !res.Reproduced || res.Attempts != 29 || res.Flips != 2 {
		t.Fatalf("search drifted from its golden line: reproduced=%v attempts=%d flips=%d", res.Reproduced, res.Attempts, res.Flips)
	}
	var last obs.AttemptEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev obs.AttemptEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Event != obs.EventAttempt {
			continue
		}
		if !flipSetIDForm.MatchString(ev.FlipSetID) {
			t.Errorf("attempt %d: flip_set_id %q is not |addr:tA#cA>tB#cB|...", ev.Attempt, ev.FlipSetID)
		}
		if got := bytes.Count([]byte(ev.FlipSetID), []byte("|")); got != ev.FlipDepth {
			t.Errorf("attempt %d: flip_set_id %q has %d flips, flip_depth %d", ev.Attempt, ev.FlipSetID, got, ev.FlipDepth)
		}
		last = ev
	}
	const want = "|0xd2b4757833f67c6d:t1#69>t2#16|0xb04c675f5a5fd4b9:t2#17>t1#72"
	if last.Attempt != 29 || last.Outcome != "reproduced" || last.FlipSetID != want {
		t.Fatalf("last attempt %d (%s) has flip_set_id %q, want attempt 29 reproduced with %q",
			last.Attempt, last.Outcome, last.FlipSetID, want)
	}
}

// TestReproducedOrderSurvivesRecycling: attempts run in buffers their
// search recycles, but the reproduced attempt's captured order becomes
// ReplayResult.Order and is never handed back. At Workers 4 later
// attempts are still in flight when the reproduction commits; neither
// they nor another search on the same recording may touch the order.
func TestReproducedOrderSurvivesRecycling(t *testing.T) {
	prog, ok := apps.ProgramForBug("mysql-169")
	if !ok {
		t.Fatal("mysql-169: program missing")
	}
	rec := recordBuggy(t, prog, sketch.SYNC)
	opts := ReplayOptions{Feedback: true, Workers: 4}
	res := Replay(prog, rec, opts)
	if !res.Reproduced || res.Attempts < 2 {
		t.Fatalf("want a reproduction after several attempts: reproduced=%v attempts=%d", res.Reproduced, res.Attempts)
	}
	want := slices.Clone(res.Order.Order)
	again := Replay(prog, rec, opts)
	if !slices.Equal(res.Order.Order, want) {
		t.Fatal("the reproduced order changed after the search ended")
	}
	if !slices.Equal(again.Order.Order, want) {
		t.Fatal("the same recording captured a different order on a second search")
	}
	if f := Reproduce(prog, rec, res.Order).Failure; f == nil || !f.IsBug() {
		t.Fatalf("the retained order no longer reproduces: %v", f)
	}
}

// BenchmarkReplaySearch times one whole sequential search of the
// deep-search workload's dominant mode: mysql-791's golden seed 8,
// which reproduces on attempt 417 with three flips. B/op and allocs/op
// are the search's allocation, most of it per attempt.
func BenchmarkReplaySearch(b *testing.B) {
	const bug = "mysql-791"
	prog, ok := apps.ProgramForBug(bug)
	if !ok {
		b.Fatalf("%s: program missing", bug)
	}
	rec := Record(prog, trajectoryOptions(8))
	opts := ReplayOptions{Feedback: true, Oracle: MatchBugID(bug), Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if res := Replay(prog, rec, opts); res.Attempts != 417 {
			b.Fatalf("search took %d attempts, want 417", res.Attempts)
		}
	}
}
