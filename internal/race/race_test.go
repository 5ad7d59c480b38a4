package race

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/ssync"
	"repro/internal/trace"
)

func detect(t *testing.T, strategy sched.Strategy, root func(*sched.Thread)) []Pair {
	t.Helper()
	d := NewDetector()
	res := sched.Run(root, sched.Config{Strategy: strategy, Observers: []sched.Observer{d}})
	if res.Failure != nil && !res.Failure.IsBug() {
		t.Fatalf("run broke: %v", res.Failure)
	}
	return d.Pairs()
}

func TestUnprotectedAccessesRace(t *testing.T) {
	pairs := detect(t, sched.Lowest{}, func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		c := th.Spawn("c", func(ct *sched.Thread) {
			x.Store(ct, 1)
		})
		x.Store(th, 2)
		th.Join(c)
	})
	if len(pairs) == 0 {
		t.Fatal("two unordered writes must race")
	}
	p := pairs[0]
	if p.First.Addr != mem.Addr("x") || !p.First.Write || !p.Second.Write {
		t.Fatalf("bad pair: %v", p)
	}
	if p.First.TID == p.Second.TID {
		t.Fatal("race within one thread reported")
	}
}

func TestLockedAccessesDoNotRace(t *testing.T) {
	pairs := detect(t, sched.NewRandomMP(4, 0.2, 3), func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		m := ssync.NewMutex("m")
		var ts []*sched.Thread
		for i := 0; i < 3; i++ {
			ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
				for j := 0; j < 4; j++ {
					m.Lock(ct)
					v := x.Load(ct)
					x.Store(ct, v+1)
					m.Unlock(ct)
				}
			}))
		}
		for _, h := range ts {
			th.Join(h)
		}
	})
	if len(pairs) != 0 {
		t.Fatalf("locked counter reported races: %v", pairs)
	}
}

func TestSpawnOrdersParentWrites(t *testing.T) {
	// Parent writes x before spawning a child that reads x: no race.
	pairs := detect(t, sched.NewRandomMP(4, 0.2, 7), func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		x.Store(th, 42)
		c := th.Spawn("c", func(ct *sched.Thread) {
			x.Load(ct)
		})
		th.Join(c)
	})
	if len(pairs) != 0 {
		t.Fatalf("spawn edge missing: %v", pairs)
	}
}

func TestJoinOrdersChildWrites(t *testing.T) {
	pairs := detect(t, sched.NewRandomMP(4, 0.2, 7), func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		c := th.Spawn("c", func(ct *sched.Thread) {
			x.Store(ct, 7)
		})
		th.Join(c)
		x.Load(th)
	})
	if len(pairs) != 0 {
		t.Fatalf("join edge missing: %v", pairs)
	}
}

func TestReadReadDoesNotRace(t *testing.T) {
	pairs := detect(t, sched.Lowest{}, func(th *sched.Thread) {
		x := mem.NewCell("x", 5)
		c := th.Spawn("c", func(ct *sched.Thread) {
			x.Load(ct)
		})
		x.Load(th)
		th.Join(c)
	})
	if len(pairs) != 0 {
		t.Fatalf("read/read raced: %v", pairs)
	}
}

func TestRacyReadOfFlag(t *testing.T) {
	// Classic order violation: consumer reads a flag the producer sets
	// with no synchronization.
	pairs := detect(t, sched.Lowest{}, func(th *sched.Thread) {
		flag := mem.NewCell("flag", 0)
		c := th.Spawn("c", func(ct *sched.Thread) {
			flag.Load(ct)
		})
		flag.Store(th, 1)
		th.Join(c)
	})
	if len(pairs) == 0 {
		t.Fatal("unsynchronized flag must race")
	}
}

func TestSemaphoreOrdersAccesses(t *testing.T) {
	pairs := detect(t, sched.NewRandomMP(4, 0.2, 9), func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		s := ssync.NewSemaphore("s", 0)
		c := th.Spawn("c", func(ct *sched.Thread) {
			s.Acquire(ct) // waits for the release below
			x.Load(ct)
		})
		x.Store(th, 1)
		s.Release(th)
		th.Join(c)
	})
	if len(pairs) != 0 {
		t.Fatalf("semaphore edge missing: %v", pairs)
	}
}

func TestPairDedupAcrossSchedule(t *testing.T) {
	d := NewDetector()
	ev := func(seq uint64, tid trace.TID, tc uint64, k trace.Kind, obj uint64) trace.Event {
		return trace.Event{Seq: seq, TID: tid, TCount: tc, Kind: k, Obj: obj}
	}
	d.OnEvent(ev(1, 0, 1, trace.KindStore, 0x10))
	d.OnEvent(ev(2, 1, 1, trace.KindStore, 0x10))
	// Same logical race replayed again must not duplicate.
	before := len(d.Pairs())
	d.OnEvent(ev(3, 0, 1, trace.KindStore, 0x10)) // same identity (t0#1)
	if len(d.Pairs()) != before+1 {
		// t0#1 vs t1#1 already seen; only the new direction (t1#1 first,
		// t0#1 second) may appear.
		t.Fatalf("pairs went %d -> %d", before, len(d.Pairs()))
	}
}

func TestHistoryBounded(t *testing.T) {
	d := NewDetector()
	// 100 sequential writes by one thread to one address must keep the
	// history bounded.
	for i := uint64(1); i <= 100; i++ {
		d.OnEvent(trace.Event{Seq: i, TID: 0, TCount: i, Kind: trace.KindStore, Obj: 0x20})
	}
	if n := len(d.writes[0x20]); n > historyDepth {
		t.Fatalf("history grew to %d", n)
	}
}

func TestAccessAndPairStrings(t *testing.T) {
	a := Access{TID: 1, TCount: 3, Addr: 0x40, Write: true}
	if !strings.Contains(a.String(), "write of") {
		t.Fatalf("Access.String() = %q", a.String())
	}
	// A registered variable renders by name.
	named := Access{TID: 2, TCount: 1, Addr: mem.NewCell("race.test.var", 0).Addr()}
	if !strings.Contains(named.String(), "race.test.var") {
		t.Fatalf("named Access.String() = %q", named.String())
	}
	p := Pair{First: a, Second: Access{TID: 2, TCount: 5, Addr: 0x40}, SecondSeq: 9}
	want := PairKey{Addr: 0x40, FirstTID: 1, FirstTCount: 3, SecondTID: 2, SecondTCount: 5}
	if p.Key() != want || !strings.Contains(p.String(), "race{") {
		t.Fatal("pair rendering broken")
	}
}

func TestRacesOrderedBySecondSeq(t *testing.T) {
	pairs := detect(t, sched.NewRandomMP(4, 0.3, 11), func(th *sched.Thread) {
		x := mem.NewCell("x", 0)
		y := mem.NewCell("y", 0)
		var ts []*sched.Thread
		for i := 0; i < 2; i++ {
			ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
				x.Store(ct, 1)
				y.Store(ct, 1)
			}))
		}
		for _, h := range ts {
			th.Join(h)
		}
	})
	for i := 1; i < len(pairs); i++ {
		if pairs[i].SecondSeq < pairs[i-1].SecondSeq {
			t.Fatal("pairs not in execution order")
		}
	}
	if len(pairs) == 0 {
		t.Fatal("expected races on x and y")
	}
}

// stringKey is the string identity Pair.Key rendered before it became a
// struct; TestPairKeyMatchesStringKey checks the two agree.
func stringKey(p Pair) string {
	return fmt.Sprintf("%#x:t%d#%d/t%d#%d", p.First.Addr, p.First.TID, p.First.TCount, p.Second.TID, p.Second.TCount)
}

// TestPairKeyMatchesStringKey: two pairs have equal PairKeys exactly
// when their old string keys are equal, over boundary coordinates —
// so every dedup set keyed by PairKey holds the same members it did
// when keyed by the string.
func TestPairKeyMatchesStringKey(t *testing.T) {
	var accs []Access
	for _, addr := range []uint64{0, 1, 0x10, math.MaxUint64} {
		for _, tid := range []trace.TID{0, 1, math.MaxInt32} {
			for _, tc := range []uint64{0, 1, math.MaxUint64} {
				accs = append(accs, Access{TID: tid, TCount: tc, Addr: addr})
			}
		}
	}
	var pairs []Pair
	for _, a := range accs {
		for _, b := range accs {
			if b.Addr != a.Addr {
				continue
			}
			pairs = append(pairs, Pair{First: a, Second: b})
			// Access kinds and steps are not identity: the same two
			// accesses as writes at other steps key the same.
			aw, bw := a, b
			aw.Write, bw.Write = true, true
			pairs = append(pairs, Pair{First: aw, Second: bw, FirstSeq: 7, SecondSeq: 9})
		}
	}
	strs := make([]string, len(pairs))
	for i, p := range pairs {
		strs[i] = stringKey(p)
	}
	for i, p := range pairs {
		for j, q := range pairs {
			if (p.Key() == q.Key()) != (strs[i] == strs[j]) {
				t.Fatalf("%v vs %v: struct keys equal=%v, string keys %q %q",
					p, q, p.Key() == q.Key(), strs[i], strs[j])
			}
		}
	}
}

// TestDetectorDedupAllocFree: re-reporting a pair the detector has
// already seen costs a map probe and nothing else — the common case on
// hot addresses, where the same racing accesses are re-checked against
// every later access.
func TestDetectorDedupAllocFree(t *testing.T) {
	d := NewDetector()
	for _, ev := range []trace.Event{
		{Seq: 1, TID: 1, TCount: 1, Kind: trace.KindStore, Obj: 0x10},
		{Seq: 2, TID: 2, TCount: 1, Kind: trace.KindStore, Obj: 0x10},
	} {
		d.OnEvent(ev)
	}
	if len(d.Pairs()) != 1 {
		t.Fatalf("setup: %d pairs, want 1", len(d.Pairs()))
	}
	prior := d.writes[0x10][:1]
	cur := d.writes[0x10][1]
	allocs := testing.AllocsPerRun(100, func() { d.reportConcurrent(prior, cur, cur.seq) })
	if allocs != 0 {
		t.Fatalf("re-reporting a seen pair allocated %.1f objects, want 0", allocs)
	}
	if len(d.Pairs()) != 1 {
		t.Fatalf("re-report added pairs: %d", len(d.Pairs()))
	}
}
