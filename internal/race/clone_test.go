package race

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// cloneEvents is a synthetic stream with spawns, sync, queue traffic
// and racy memory accesses across three threads — enough to populate
// every map the detector keeps.
func cloneEvents() []trace.Event {
	mk := func(tid trace.TID, tc uint64, kind trace.Kind, obj, arg, seq uint64) trace.Event {
		return trace.Event{TID: tid, TCount: tc, Kind: kind, Obj: obj, Arg: arg, Seq: seq}
	}
	return []trace.Event{
		mk(1, 1, trace.KindSpawn, 0, 2, 1),
		mk(2, 1, trace.KindThreadStart, 0, 0, 2),
		mk(1, 2, trace.KindStore, 0x100, 0, 3),
		mk(2, 2, trace.KindStore, 0x100, 0, 4), // races with t1's store
		mk(1, 3, trace.KindLock, 0x200, 0, 5),
		mk(1, 4, trace.KindLoad, 0x300, 0, 6),
		mk(1, 5, trace.KindUnlock, 0x200, 0, 7),
		mk(2, 3, trace.KindLock, 0x200, 0, 8),
		mk(2, 4, trace.KindStore, 0x300, 0, 9), // HB via the lock: no race
		mk(2, 5, trace.KindUnlock, 0x200, 0, 10),
		mk(1, 6, trace.KindSpawn, 0, 3, 11),
		mk(3, 1, trace.KindThreadStart, 0, 0, 12),
		mk(3, 2, trace.KindLoad, 0x100, 0, 13), // races with both stores
	}
}

// suffix continues the stream past the clone point with fresh races.
func cloneSuffix() []trace.Event {
	mk := func(tid trace.TID, tc uint64, kind trace.Kind, obj, arg, seq uint64) trace.Event {
		return trace.Event{TID: tid, TCount: tc, Kind: kind, Obj: obj, Arg: arg, Seq: seq}
	}
	return []trace.Event{
		mk(2, 6, trace.KindStore, 0x400, 0, 14),
		mk(3, 3, trace.KindStore, 0x400, 0, 15), // new race
		mk(1, 7, trace.KindLoad, 0x400, 0, 16),  // more races
		mk(3, 4, trace.KindThreadExit, 0, 0, 17),
		mk(1, 8, trace.KindJoin, 3, 0, 18),
		mk(1, 9, trace.KindLoad, 0x400, 0, 19), // HB via join with t3 only
	}
}

func TestDetectorCloneEquivalence(t *testing.T) {
	// A from-scratch detector over prefix+suffix and a clone taken at
	// the prefix boundary, fed only the suffix, must report identical
	// pair sets — the invariant the prefix-snapshot restore path needs.
	whole := NewDetector()
	pre := NewDetector()
	for _, ev := range cloneEvents() {
		whole.OnEvent(ev)
		pre.OnEvent(ev)
	}
	clone := pre.Clone()
	for _, ev := range cloneSuffix() {
		whole.OnEvent(ev)
		clone.OnEvent(ev)
	}
	if len(whole.Pairs()) == 0 {
		t.Fatal("stream produced no races; the test is vacuous")
	}
	if !reflect.DeepEqual(whole.Pairs(), clone.Pairs()) {
		t.Fatalf("clone diverged from whole-stream detection:\nwhole: %v\nclone: %v", whole.Pairs(), clone.Pairs())
	}
}

func TestDetectorCloneIsolation(t *testing.T) {
	// Events fed to the original after cloning must not leak into the
	// clone (and vice versa): the clone's maps, histories and clocks
	// are private storage.
	d := NewDetector()
	for _, ev := range cloneEvents() {
		d.OnEvent(ev)
	}
	c := d.Clone()
	wantPairs := append([]Pair(nil), c.Pairs()...)
	for _, ev := range cloneSuffix() {
		d.OnEvent(ev)
	}
	if !reflect.DeepEqual(c.Pairs(), wantPairs) {
		t.Fatalf("feeding the original mutated the clone's pairs: %v != %v", c.Pairs(), wantPairs)
	}
	// The clone must still detect the suffix races independently.
	for _, ev := range cloneSuffix() {
		c.OnEvent(ev)
	}
	if !reflect.DeepEqual(c.Pairs(), d.Pairs()) {
		t.Fatalf("clone and original disagree after identical suffixes:\nclone: %v\norig: %v", c.Pairs(), d.Pairs())
	}
}

func TestDetectorFootprintPositive(t *testing.T) {
	d := NewDetector()
	for _, ev := range cloneEvents() {
		d.OnEvent(ev)
	}
	if d.Footprint() <= 0 {
		t.Fatalf("footprint must be positive: %d", d.Footprint())
	}
	if d.Clone().Footprint() != d.Footprint() {
		t.Fatal("clone footprint differs from original")
	}
}
