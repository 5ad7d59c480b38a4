package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// quiObserver records committed events and every quiescent tap, and
// checks the defining property inline: a tap's step equals the number
// of events already delivered to observers, i.e. the tap describes the
// committed prefix and never runs ahead of it.
type quiObserver struct {
	evs  []trace.Event
	taps []uint64
	bad  []string
}

func (o *quiObserver) OnEvent(ev trace.Event) uint64 {
	o.evs = append(o.evs, ev)
	return 0
}

func (o *quiObserver) OnQuiescent(step uint64) {
	if step != uint64(len(o.evs)) {
		o.bad = append(o.bad, fmt.Sprintf("tap %d after %d committed events", step, len(o.evs)))
	}
	o.taps = append(o.taps, step)
}

// TestQuiescentTapsPrecedePicks: OnQuiescent fires at the top of every
// scheduling round — after all threads have parked, before the strategy
// picks — carrying exactly the committed-prefix length. Every round
// commits exactly one event, batch ops included, so the tap sequence is
// precisely 0..n-1.
func TestQuiescentTapsPrecedePicks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		o := &quiObserver{}
		Run(batchWorkload(3, 5), Config{
			Strategy: NewRandomMP(2, 0.1, seed), Observers: []Observer{o}})
		if len(o.bad) > 0 {
			t.Fatalf("%s: taps ran ahead of the commit stream: %v", label, o.bad)
		}
		if len(o.taps) != len(o.evs) {
			t.Fatalf("%s: %d taps for %d events, want one per event", label, len(o.taps), len(o.evs))
		}
		for i, tap := range o.taps {
			if tap != uint64(i) {
				t.Fatalf("%s: taps %v, want 0..%d", label, o.taps, len(o.evs)-1)
			}
		}
	}
}

// TestQuiescentPlainObserverUnaffected: registering only plain
// observers leaves the quiescent slice empty and the committed stream
// identical — the hook is zero-cost when unused.
func TestQuiescentPlainObserverUnaffected(t *testing.T) {
	plain := &epochObserver{}
	Run(batchWorkload(3, 5), Config{
		Strategy: NewRandomMP(2, 0.1, 7), Observers: []Observer{plain}})
	tapped := &quiObserver{}
	Run(batchWorkload(3, 5), Config{
		Strategy: NewRandomMP(2, 0.1, 7), Observers: []Observer{tapped}})
	if !reflect.DeepEqual(plain.evs, tapped.evs) {
		t.Fatal("quiescent taps perturbed the committed stream")
	}
}
