package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// epochObserver records every event and, for every epoch seal, how many
// events had committed when it fired, so the tests can check the seal
// points against the committed stream.
type epochObserver struct {
	evs      []trace.Event
	seals    []int // len(evs) at each seal
	sealCost uint64
}

func (o *epochObserver) OnEvent(ev trace.Event) uint64 {
	o.evs = append(o.evs, ev)
	return 0
}

func (o *epochObserver) OnEpochSeal() uint64 {
	o.seals = append(o.seals, len(o.evs))
	return o.sealCost
}

// expectedSeals derives the seal points the epoch contract promises
// from a committed event stream: one seal at every TID change, before
// the incoming thread's first event, plus a final seal after the last
// event. Every grant commits at least one event, so stream TID changes
// are exactly the control transfers.
func expectedSeals(evs []trace.Event) []int {
	var seals []int
	for i := 1; i < len(evs); i++ {
		if evs[i].TID != evs[i-1].TID {
			seals = append(seals, i)
		}
	}
	if len(evs) > 0 {
		seals = append(seals, len(evs))
	}
	return seals
}

// TestEpochSealsAtControlTransfers: an EpochObserver is sealed exactly
// at control transfers (never inside a same-thread run, however many
// grants it spans) plus once at end of execution — in both the fast
// path and the single-step reference mode, with identical sequences.
func TestEpochSealsAtControlTransfers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		fast := &epochObserver{}
		Run(batchWorkload(3, 5), Config{
			Strategy: NewRandomMP(2, 0.1, seed), Observers: []Observer{fast}})
		slow := &epochObserver{}
		Run(batchWorkload(3, 5), Config{
			Strategy: NewRandomMP(2, 0.1, seed), Observers: []Observer{slow}, SingleStep: true})
		if len(fast.seals) == 0 {
			t.Fatalf("%s: no epoch seals on a multi-threaded run", label)
		}
		if want := expectedSeals(fast.evs); !reflect.DeepEqual(fast.seals, want) {
			t.Fatalf("%s: fast-path seals at %v, want %v (one per control transfer + final)",
				label, fast.seals, want)
		}
		if !reflect.DeepEqual(fast.seals, slow.seals) {
			t.Fatalf("%s: seal sequences diverge between modes:\nfast:        %v\nsingle-step: %v",
				label, fast.seals, slow.seals)
		}
		if !reflect.DeepEqual(fast.evs, slow.evs) {
			t.Fatalf("%s: event streams diverge", label)
		}
	}
}

// TestEpochSealCostAccounting: OnEpochSeal's returned cost lands in
// Result.ExtraCost, identically in both modes.
func TestEpochSealCostAccounting(t *testing.T) {
	run := func(single bool) (*Result, *epochObserver) {
		o := &epochObserver{sealCost: 7}
		res := Run(batchWorkload(2, 4), Config{
			Strategy: NewRandomMP(2, 0.1, 3), Observers: []Observer{o}, SingleStep: single})
		return res, o
	}
	base := Run(batchWorkload(2, 4), Config{Strategy: NewRandomMP(2, 0.1, 3)})
	fastRes, fastObs := run(false)
	slowRes, slowObs := run(true)
	wantExtra := base.ExtraCost + 7*uint64(len(fastObs.seals))
	if fastRes.ExtraCost != wantExtra {
		t.Fatalf("fast ExtraCost = %d, want %d (base %d + 7 x %d seals)",
			fastRes.ExtraCost, wantExtra, base.ExtraCost, len(fastObs.seals))
	}
	if slowRes.ExtraCost != fastRes.ExtraCost || len(slowObs.seals) != len(fastObs.seals) {
		t.Fatalf("modes disagree: fast %d cost/%d seals, single-step %d cost/%d seals",
			fastRes.ExtraCost, len(fastObs.seals), slowRes.ExtraCost, len(slowObs.seals))
	}
}
