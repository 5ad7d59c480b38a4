package race

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/ssync"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vsys"
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

// corpusRun is one corpus execution: its name and the event stream the
// scheduler committed.
type corpusRun struct {
	name   string
	events []trace.Event
}

// corpusRuns executes every corpus bug's program, unpatched, under five
// production-like schedule seeds.
func corpusRuns(t *testing.T) []corpusRun {
	t.Helper()
	var runs []corpusRun
	for _, b := range apps.AllBugs() {
		prog, ok := apps.Get(b.App)
		if !ok {
			t.Fatalf("%s: no program %q", b.ID, b.App)
		}
		for seed := int64(1); seed <= 5; seed++ {
			var rec eventLog
			sched.Run(func(th *sched.Thread) {
				prog.Run(&appkit.Env{T: th, W: vsys.NewWorld(seed)})
			}, sched.Config{Strategy: sched.NewRandomMP(4, 0.02, seed), MaxSteps: 200_000, Observers: []sched.Observer{&rec}})
			runs = append(runs, corpusRun{fmt.Sprintf("%s/seed%d", b.ID, seed), rec})
		}
	}
	return runs
}

type eventLog []trace.Event

func (l *eventLog) OnEvent(ev trace.Event) uint64 {
	*l = append(*l, ev)
	return 0
}

// TestDetectorMatchesReference: the epoch detector reports exactly the
// pairs, in exactly the order, of refDetector — the clock-per-access
// detector it replaced — over the whole corpus.
func TestDetectorMatchesReference(t *testing.T) {
	runs := corpusRuns(t)
	events, total := 0, 0
	for _, run := range runs {
		d, ref := NewDetector(), newRefDetector()
		for _, ev := range run.events {
			d.OnEvent(ev)
			ref.OnEvent(ev)
		}
		if !reflect.DeepEqual(d.Pairs(), ref.Pairs()) {
			t.Errorf("%s: epoch detector reported %d pairs, reference %d", run.name, len(d.Pairs()), len(ref.Pairs()))
		}
		events += len(run.events)
		total += len(ref.Pairs())
	}
	if total == 0 {
		t.Fatal("the corpus produced no races; the test is vacuous")
	}
	t.Logf("%d executions, %d events, %d pairs", len(runs), events, total)
}

// TestDetectorResetMatchesFresh: one detector reused across the whole
// corpus, Reset between executions, reports for each execution exactly
// the pairs, in the same order, that a fresh detector reports — no
// clock, history or pair survives a Reset. Consecutive executions come
// from the two ends of the corpus list, so from different programs, and
// recycled histories carry records of another program's accesses that
// the reused detector must not read.
func TestDetectorResetMatchesFresh(t *testing.T) {
	runs := corpusRuns(t)
	reused := NewDetector()
	drew := false
	for i := range runs {
		run := runs[i/2]
		if i%2 == 1 {
			run = runs[len(runs)-1-i/2]
		}
		reused.Reset()
		free := len(reused.free)
		fresh := NewDetector()
		for _, ev := range run.events {
			reused.OnEvent(ev)
			fresh.OnEvent(ev)
		}
		drew = drew || len(reused.free) < free
		if !slices.Equal(reused.Pairs(), fresh.Pairs()) {
			t.Fatalf("%s (execution %d): reset detector reported %d pairs, fresh %d",
				run.name, i, len(reused.Pairs()), len(fresh.Pairs()))
		}
	}
	if !drew {
		t.Fatal("no execution drew a recycled history; the test is vacuous")
	}
}

// TestDetectorNoDuplicateKeys: the detector keeps no dedup set because
// no execution can make it report one pair twice — the second access's
// (TID, TCount) is unique per execution and each retained access sits
// in one ring once.
func TestDetectorNoDuplicateKeys(t *testing.T) {
	for _, run := range corpusRuns(t) {
		d := NewDetector()
		for _, ev := range run.events {
			d.OnEvent(ev)
		}
		seen := make(map[PairKey]bool, len(d.Pairs()))
		for _, p := range d.Pairs() {
			if seen[p.Key()] {
				t.Fatalf("%s: pair %v reported twice", run.name, p)
			}
			seen[p.Key()] = true
		}
	}
}

func TestHistoryBounded(t *testing.T) {
	d := NewDetector()
	// 100 writes and 100 reads, alternating, by one thread to one
	// address: writes at odd steps, reads at even ones. Each ring keeps
	// only its last historyDepth accesses.
	for i := uint64(1); i <= 200; i++ {
		kind := trace.KindStore
		if i%2 == 0 {
			kind = trace.KindLoad
		}
		d.OnEvent(trace.Event{Seq: i, TID: 0, TCount: i, Kind: kind, Obj: 0x20})
	}
	h := d.history[0x20]
	for first, r := range map[uint64]*ring{1: &h.writes, 2: &h.reads} {
		if r.n != 100 {
			t.Fatalf("ring saw %d accesses, want 100", r.n)
		}
		for i := r.n - historyDepth; i < r.n; i++ {
			if got, want := r.recs[i%historyDepth].seq, first+2*uint64(i); got != want {
				t.Fatalf("access %d of the ring is step %d, want %d", i, got, want)
			}
		}
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

// TestDetectorAccessAllocFree: a memory access to an address the
// detector has already seen, reporting no pair, allocates nothing — the
// common case on hot addresses.
func TestDetectorAccessAllocFree(t *testing.T) {
	d := NewDetector()
	d.OnEvent(trace.Event{Seq: 1, TID: 1, TCount: 1, Kind: trace.KindStore, Obj: 0x10})
	ev := trace.Event{TID: 1, Kind: trace.KindStore, Obj: 0x10}
	allocs := testing.AllocsPerRun(100, func() {
		ev.Seq++
		ev.TCount++
		d.OnEvent(ev)
	})
	if allocs != 0 {
		t.Fatalf("an access to a seen address allocated %.1f objects, want 0", allocs)
	}
	if len(d.Pairs()) != 0 {
		t.Fatalf("one thread's accesses reported pairs: %v", d.Pairs())
	}
}

// refDetector is the detector as it was before access records kept
// epochs: every access clones its thread's vector clock, the race test
// compares whole clocks, each address's history is a pair of shifted
// slices, and a seen set drops repeated pairs.
// TestDetectorMatchesReference holds the epoch detector to its pairs.
type refDetector struct {
	threads map[trace.TID]vclock.VC
	objects map[uint64]vclock.VC
	born    map[trace.TID]vclock.VC
	exited  map[trace.TID]vclock.VC

	writes map[uint64][]refAccessRec
	reads  map[uint64][]refAccessRec

	pairs []Pair
	seen  map[PairKey]bool
}

type refAccessRec struct {
	acc Access
	seq uint64
	vc  vclock.VC
}

func newRefDetector() *refDetector {
	return &refDetector{
		threads: make(map[trace.TID]vclock.VC),
		objects: make(map[uint64]vclock.VC),
		born:    make(map[trace.TID]vclock.VC),
		exited:  make(map[trace.TID]vclock.VC),
		writes:  make(map[uint64][]refAccessRec),
		reads:   make(map[uint64][]refAccessRec),
		seen:    make(map[PairKey]bool),
	}
}

func (d *refDetector) Pairs() []Pair { return d.pairs }

func (d *refDetector) OnEvent(ev trace.Event) uint64 {
	tid := ev.TID
	vc := d.threads[tid]

	switch {
	case ev.Kind == trace.KindThreadStart:
		if bvc, ok := d.born[tid]; ok {
			vc = vc.Join(bvc)
		}
	case ev.Kind == trace.KindJoin:
		if evc, ok := d.exited[trace.TID(ev.Obj)]; ok {
			vc = vc.Join(evc)
		}
	case ev.Kind.IsMemory():
		vc = vc.Tick(int(tid))
		d.threads[tid] = vc
		d.checkAccess(ev, vc)
		return 0
	case ev.Kind.IsSync():
		vc = vc.Join(d.objects[ev.Obj])
	case ev.Kind == trace.KindSyscall && ev.Obj == vsys.CallRecv:
		vc = vc.Join(d.objects[queueKey(ev.Arg)])
	}

	vc = vc.Tick(int(tid))
	d.threads[tid] = vc

	switch {
	case ev.Kind == trace.KindSpawn:
		d.born[trace.TID(ev.Arg)] = vc.Clone()
	case ev.Kind == trace.KindThreadExit:
		d.exited[tid] = vc.Clone()
	case ev.Kind.IsSync():
		d.objects[ev.Obj] = d.objects[ev.Obj].Join(vc)
	case ev.Kind == trace.KindSyscall && ev.Obj == vsys.CallSend:
		d.objects[queueKey(ev.Arg)] = d.objects[queueKey(ev.Arg)].Join(vc)
	}
	return 0
}

func (d *refDetector) checkAccess(ev trace.Event, vc vclock.VC) {
	acc := Access{TID: ev.TID, TCount: ev.TCount, Addr: ev.Obj, Write: ev.Kind.IsWrite()}
	rec := refAccessRec{acc: acc, seq: ev.Seq, vc: vc.Clone()}

	d.reportConcurrent(d.writes[acc.Addr], rec, ev.Seq)
	if acc.Write {
		d.reportConcurrent(d.reads[acc.Addr], rec, ev.Seq)
		d.writes[acc.Addr] = refAppendBounded(d.writes[acc.Addr], rec)
	} else {
		d.reads[acc.Addr] = refAppendBounded(d.reads[acc.Addr], rec)
	}
}

func (d *refDetector) reportConcurrent(prior []refAccessRec, cur refAccessRec, seq uint64) {
	for _, p := range prior {
		if p.acc.TID == cur.acc.TID {
			continue
		}
		if !p.vc.HappensBefore(cur.vc) {
			pair := Pair{First: p.acc, Second: cur.acc, FirstSeq: p.seq, SecondSeq: seq}
			if k := pair.Key(); !d.seen[k] {
				d.seen[k] = true
				d.pairs = append(d.pairs, pair)
			}
		}
	}
}

func refAppendBounded(s []refAccessRec, r refAccessRec) []refAccessRec {
	s = append(s, r)
	if len(s) > historyDepth {
		copy(s, s[1:])
		s = s[:historyDepth]
	}
	return s
}
