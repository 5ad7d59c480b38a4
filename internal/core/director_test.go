package core

import (
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
	if !d.sketchConsumed() {
		t.Fatal("empty sketch should read as consumed")
	}
}

func TestDirectorFlipHoldsAndReleases(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 1, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 1, Addr: 0x10},
	}
	fs, okAdd := flipSet{}.with(flipOf(p))
	if !okAdd {
		t.Fatal("fresh flip rejected")
	}
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
	fs, _ := flipSet{}.with(flipOf(p))
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
	fs, ok := flipSet{}.with(flipOf(p))
	if !ok {
		t.Fatal("first flip rejected")
	}
	if _, ok := fs.with(flipOf(p)); ok {
		t.Fatal("identical pair accepted twice")
	}
	if _, ok := fs.with(flipOf(rev)); ok {
		t.Fatal("reversed pair accepted — oscillation guard broken")
	}
	other := race.Pair{
		First:  race.Access{TID: 1, TCount: 9, Addr: 0x20, Write: true},
		Second: race.Access{TID: 2, TCount: 2, Addr: 0x20},
	}
	if _, ok := fs.with(flipOf(other)); !ok {
		t.Fatal("distinct pair rejected")
	}
}

func TestFlipPairKey(t *testing.T) {
	f := flip{holdTID: 2, holdCount: 9, addr: 0x10, untilTID: 1, untilCnt: 40}
	swapped := flip{holdTID: f.untilTID, holdCount: f.untilCnt, addr: f.addr, untilTID: f.holdTID, untilCnt: f.holdCount}
	if f.pairKey() != swapped.pairKey() {
		t.Fatalf("swapping hold and until changed the key: %+v vs %+v", f.pairKey(), swapped.pairKey())
	}
	// Same thread at both ends orders by count.
	same := flip{holdTID: 3, holdCount: 7, addr: 0x10, untilTID: 3, untilCnt: 2}
	sameSwapped := flip{holdTID: 3, holdCount: 2, addr: 0x10, untilTID: 3, untilCnt: 7}
	if same.pairKey() != sameSwapped.pairKey() {
		t.Fatal("same-thread ends not put in count order")
	}
	moved := f
	moved.addr = 0x20
	if f.pairKey() == moved.pairKey() {
		t.Fatal("flips on different addresses share a pair key")
	}
}

// TestDirectorPickAllocFree: once its candidate buffers have grown, a
// directed Pick — sketch consumed, one flip pending and holding a
// candidate, so collect and applyFlips both run — allocates nothing.
func TestDirectorPickAllocFree(t *testing.T) {
	p := race.Pair{
		First:  race.Access{TID: 1, TCount: 1, Addr: 0x10, Write: true},
		Second: race.Access{TID: 2, TCount: 5, Addr: 0x10},
	}
	fs, _ := flipSet{}.with(flipOf(p))
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
	fs, _ := flipSet{}.with(flipOf(p))
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
