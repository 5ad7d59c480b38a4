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
// grants it spans) plus once at end of execution.
func TestEpochSealsAtControlTransfers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		o := &epochObserver{}
		Run(batchWorkload(3, 5), Config{
			Strategy: NewRandomMP(2, 0.1, seed), Observers: []Observer{o}})
		if len(o.seals) == 0 {
			t.Fatalf("%s: no epoch seals on a multi-threaded run", label)
		}
		if want := expectedSeals(o.evs); !reflect.DeepEqual(o.seals, want) {
			t.Fatalf("%s: seals at %v, want %v (one per control transfer + final)",
				label, o.seals, want)
		}
	}
}

// TestEpochSealCostAccounting: OnEpochSeal's returned cost lands in
// Result.ExtraCost.
func TestEpochSealCostAccounting(t *testing.T) {
	o := &epochObserver{sealCost: 7}
	res := Run(batchWorkload(2, 4), Config{
		Strategy: NewRandomMP(2, 0.1, 3), Observers: []Observer{o}})
	base := Run(batchWorkload(2, 4), Config{Strategy: NewRandomMP(2, 0.1, 3)})
	wantExtra := base.ExtraCost + 7*uint64(len(o.seals))
	if res.ExtraCost != wantExtra {
		t.Fatalf("ExtraCost = %d, want %d (base %d + 7 x %d seals)",
			res.ExtraCost, wantExtra, base.ExtraCost, len(o.seals))
	}
}
