package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

func cand(tid trace.TID, k trace.Kind, obj uint64) sched.Candidate {
	return sched.Candidate{TID: tid, Kind: k, Obj: obj, Cost: 10}
}

func view(cs ...sched.Candidate) *sched.PickView {
	return &sched.PickView{Candidates: cs}
}

func entry(tid trace.TID, k trace.Kind, obj uint64) trace.SketchEntry {
	return trace.SketchEntry{TID: tid, Kind: k, Obj: obj}
}

func TestDirectorHoldsOutOfTurnSketchOps(t *testing.T) {
	d := newDirector(sketch.SYNC,
		[]trace.SketchEntry{entry(1, trace.KindLock, 7), entry(2, trace.KindLock, 7)},
		flipSet{}, nil)
	// Thread 2's lock is out of recorded turn; thread 1's is expected.
	tid, ok := d.Pick(view(cand(1, trace.KindLock, 7), cand(2, trace.KindLock, 7)))
	if !ok || tid != 1 {
		t.Fatalf("pick = %d, %v; want thread 1", tid, ok)
	}
	if d.k != 1 {
		t.Fatalf("sketch position = %d, want 1", d.k)
	}
}

func TestDirectorFreeOpsRunUnderHold(t *testing.T) {
	d := newDirector(sketch.SYNC,
		[]trace.SketchEntry{entry(1, trace.KindLock, 7)},
		flipSet{}, nil)
	// Thread 2 is at a free (memory) op while thread 1 owns the next
	// sketch point; sticky starts fresh so least-executed picks tid 1
	// first, but if only thread 2's free op is offered it must run.
	tid, ok := d.Pick(view(cand(2, trace.KindLoad, 0x10)))
	if !ok || tid != 2 {
		t.Fatalf("free op under hold: pick = %d, %v", tid, ok)
	}
	if d.k != 0 {
		t.Fatal("sketch position must not advance on free ops")
	}
}

func TestDirectorDivergesOnWrongSketchPoint(t *testing.T) {
	d := newDirector(sketch.SYNC,
		[]trace.SketchEntry{entry(1, trace.KindLock, 7)},
		flipSet{}, nil)
	// The thread owed the next sketch point arrives at a different one.
	_, ok := d.Pick(view(cand(1, trace.KindUnlock, 9)))
	if ok || !d.diverged {
		t.Fatalf("expected divergence, got ok=%v diverged=%v", ok, d.diverged)
	}
}

func TestDirectorDivergesWhenNothingCanRun(t *testing.T) {
	d := newDirector(sketch.SYNC,
		[]trace.SketchEntry{entry(1, trace.KindLock, 7)},
		flipSet{}, nil)
	// Only an out-of-turn sketch op is runnable: nobody can reach the
	// recorded point.
	_, ok := d.Pick(view(cand(2, trace.KindLock, 9)))
	if ok || !d.diverged {
		t.Fatal("expected divergence when no thread can reach the sketch point")
	}
}

func TestDirectorExhaustedSketchFreesEverything(t *testing.T) {
	d := newDirector(sketch.SYNC, nil, flipSet{}, nil)
	tid, ok := d.Pick(view(cand(3, trace.KindLock, 9)))
	if !ok || tid != 3 {
		t.Fatal("with no sketch entries all ops must be free")
	}
	if d.k != len(d.entries) {
		t.Fatal("empty sketch should read as consumed")
	}
}

func TestDirectorFlipHoldsAndReleases(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 1, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 1, Addr: 0x10},
	}
	fs := flipSet{}.plus(flipOf(p))
	d := newDirector(sketch.SYNC, nil, fs, nil)

	// Thread 1's first op matches the flip's hold identity: thread 2
	// must run instead, and the director enters soft mode.
	tid, ok := d.Pick(view(cand(1, trace.KindStore, 0x10), cand(2, trace.KindLoad, 0x10)))
	if !ok || tid != 2 {
		t.Fatalf("pick = %d, want the until-thread 2", tid)
	}
	if !d.soft {
		t.Fatal("engaging a flip must relax the sketch")
	}
	// Thread 2 executing its access releases the flip.
	d.OnEvent(trace.Event{TID: 2, TCount: 1, Kind: trace.KindLoad, Obj: 0x10})
	if !d.flipDone[0] {
		t.Fatal("flip not released after the until-access")
	}
	tid, ok = d.Pick(view(cand(1, trace.KindStore, 0x10)))
	if !ok || tid != 1 {
		t.Fatal("held thread must run after release")
	}
}

func TestDirectorFlipWedgeReleases(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 1, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 5, Addr: 0x10},
	}
	fs := flipSet{}.plus(flipOf(p))
	d := newDirector(sketch.SYNC, nil, fs, nil)
	// Only the held op is runnable: best-effort gives the flip up
	// rather than wedging the attempt.
	tid, ok := d.Pick(view(cand(1, trace.KindStore, 0x10)))
	if !ok || tid != 1 {
		t.Fatalf("wedged flip should release; pick = %d, %v", tid, ok)
	}
	if !d.flipDone[0] {
		t.Fatal("wedging flip not marked released")
	}
}

func TestDirectorStickyPolicy(t *testing.T) {
	d := newDirector(sketch.SYNC, nil, flipSet{}, nil)
	v := view(cand(1, trace.KindLoad, 1), cand(2, trace.KindLoad, 2))
	tid1, _ := d.Pick(v)
	d.OnEvent(trace.Event{TID: tid1, TCount: 1, Kind: trace.KindLoad})
	tid2, _ := d.Pick(v)
	if tid2 != tid1 {
		t.Fatalf("sticky policy switched threads without need: %d then %d", tid1, tid2)
	}
}

func TestDirectorHorizonRecorded(t *testing.T) {
	d := newDirector(sketch.SYNC,
		[]trace.SketchEntry{entry(1, trace.KindLock, 7)},
		flipSet{}, nil)
	v := &sched.PickView{Step: 41, Candidates: []sched.Candidate{cand(1, trace.KindLock, 7)}}
	if _, ok := d.Pick(v); !ok {
		t.Fatal("expected grant")
	}
	if d.exhaustStep != 42 {
		t.Fatalf("exhaustStep = %d, want 42", d.exhaustStep)
	}
}

func TestFlipSetPairDedup(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 3, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 4, Addr: 0x10},
	}
	rev := race.Pair{First: p.Second, Second: p.First}
	if (flipSet{}).constrains(flipOf(p)) {
		t.Fatal("the empty set constrains a pair")
	}
	fs := flipSet{}.plus(flipOf(p))
	if !fs.constrains(flipOf(p)) {
		t.Fatal("identical pair accepted twice")
	}
	if !fs.constrains(flipOf(rev)) {
		t.Fatal("reversed pair accepted — oscillation guard broken")
	}
	other := race.Pair{
		First:  race.Access{TID: 1, TCount: 9, Addr: 0x20, Write: true},
		Second: race.Access{TID: 2, TCount: 2, Addr: 0x20},
	}
	if fs.constrains(flipOf(other)) {
		t.Fatal("distinct pair rejected")
	}
}

// flipFor builds the flip holding thread hold's access hc to addr until
// thread until's access uc has executed.
func flipFor(addr uint64, hold trace.TID, hc uint64, until trace.TID, uc uint64) flip {
	return flipOf(race.Pair{
		First:  race.Access{TID: hold, TCount: hc, Addr: addr},
		Second: race.Access{TID: until, TCount: uc, Addr: addr},
	})
}

func TestFlipPairKey(t *testing.T) {
	f := flipFor(0x10, 2, 9, 1, 40)
	swapped := flipFor(0x10, 1, 40, 2, 9)
	if f.pairKey() != swapped.pairKey() {
		t.Fatalf("swapping hold and until changed the key: %+v vs %+v", f.pairKey(), swapped.pairKey())
	}
	// Same thread at both ends orders by count.
	same := flipFor(0x10, 3, 7, 3, 2)
	sameSwapped := flipFor(0x10, 3, 2, 3, 7)
	if same.pairKey() != sameSwapped.pairKey() {
		t.Fatal("same-thread ends not put in count order")
	}
	moved := flipFor(0x20, 2, 9, 1, 40)
	if f.pairKey() == moved.pairKey() {
		t.Fatal("flips on different addresses share a pair key")
	}
}

// TestFlipRenderKey: the flip key renders byte for byte as the fmt
// form it replaced, at the coordinates' extremes.
func TestFlipRenderKey(t *testing.T) {
	for _, addr := range []uint64{0, 1, 0x10, 0xd2b4757833f67c6d, math.MaxUint64} {
		for _, tid := range []trace.TID{0, 1, 2, math.MaxInt32} {
			for _, n := range []uint64{0, 1, 69, 1 << 40, math.MaxUint64} {
				for _, f := range []flip{flipFor(addr, tid, n, 0, math.MaxUint64-n), flipFor(addr, 0, math.MaxUint64-n, tid, n)} {
					p := f.pair
					want := fmt.Sprintf("%#x:t%d#%d>t%d#%d", p.First.Addr, p.Second.TID, p.Second.TCount, p.First.TID, p.First.TCount)
					if got := f.renderKey(); got != want {
						t.Fatalf("renderKey = %q, want %q", got, want)
					}
				}
			}
		}
	}
}

// TestDirectorPickAllocFree: a directed Pick — sketch consumed, one
// flip pending and holding a candidate, so the fast path is skipped
// and the full candidate scan runs — allocates nothing.
func TestDirectorPickAllocFree(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 1, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 5, Addr: 0x10},
	}
	fs := flipSet{}.plus(flipOf(p))
	d := newDirector(sketch.SYNC, nil, fs, nil)
	v := view(cand(1, trace.KindStore, 0x10), cand(2, trace.KindLoad, 0x20), cand(3, trace.KindLoad, 0x30))
	pick := func() {
		if tid, ok := d.Pick(v); !ok || tid == 1 {
			t.Fatalf("pick = %d, %v; the held thread 1 must wait", tid, ok)
		}
	}
	pick()
	if allocs := testing.AllocsPerRun(100, pick); allocs != 0 {
		t.Fatalf("director.Pick allocated %.1f objects per call, want 0", allocs)
	}
	if !d.anyFlipPending() {
		t.Fatal("flip released; the test no longer exercises the held path")
	}
}

func TestFlipSetPairsRoundTrip(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 3, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 4, Addr: 0x10},
	}
	fs := flipSet{}.plus(flipOf(p))
	got := fs.pairs()
	if len(got) != 1 || got[0].Key() != p.Key() {
		t.Fatalf("pairs() = %v", got)
	}
}

func TestOrderCapture(t *testing.T) {
	c := &orderCapture{}
	c.OnEvent(trace.Event{TID: 1})
	c.OnEvent(trace.Event{TID: 2})
	c.OnEvent(trace.Event{TID: 1})
	f := c.full()
	if f.Len() != 3 || f.Order[0] != 1 || f.Order[1] != 2 {
		t.Fatalf("captured %v", f.Order)
	}
}
