package race

import (
	"repro/internal/trace"
)

// LocksetDetector is an Eraser-style alternative to the happens-before
// Detector: it tracks the set of locks each thread holds and, per
// address, the intersection of locksets across accesses (the Eraser
// state machine: virgin -> exclusive -> shared -> shared-modified).
// When an address's candidate lockset empties under a write, the access
// is flagged and paired with the most recent access from another thread
// to form a flip candidate.
//
// Lockset analysis predicts races that did not happen in this execution
// (any consistently-unlocked access pattern), at the price of false
// positives on deliberately lock-free protocols; happens-before is
// exact for the observed execution. PRES's feedback can be driven by
// either — BenchmarkAblationDetector compares them.
type LocksetDetector struct {
	held  map[trace.TID]map[uint64]bool // locks currently held per thread
	state map[uint64]*addrState

	pairs []Pair
	seen  map[PairKey]bool
}

type addrMode uint8

const (
	virgin addrMode = iota
	exclusive
	shared
	sharedModified
)

type addrState struct {
	mode  addrMode
	owner trace.TID
	// candidate is the intersection of lock sets seen at accesses; nil
	// means "not yet initialized" (first shared access copies).
	candidate map[uint64]bool
	// lastBy holds the most recent access per thread, so a flagged
	// access can be paired with the latest access from another thread.
	lastBy map[trace.TID]accessRec
}

// NewLocksetDetector returns an empty lockset detector.
func NewLocksetDetector() *LocksetDetector {
	return &LocksetDetector{
		held:  make(map[trace.TID]map[uint64]bool),
		state: make(map[uint64]*addrState),
		seen:  make(map[PairKey]bool),
	}
}

// Pairs returns the flagged access pairs in execution order.
func (d *LocksetDetector) Pairs() []Pair { return d.pairs }

// OnEvent implements sched.Observer.
func (d *LocksetDetector) OnEvent(ev trace.Event) uint64 {
	switch ev.Kind {
	case trace.KindLock, trace.KindRLock, trace.KindWake:
		// Wake reacquires the mutex the wait released; we cannot see
		// which from the event (Obj is the cond), so wait/wake pairs
		// are approximated by the surrounding lock/unlock events.
		if ev.Kind != trace.KindWake {
			d.lockHeld(ev.TID, ev.Obj, true)
		}
	case trace.KindUnlock, trace.KindRUnlock:
		d.lockHeld(ev.TID, ev.Obj, false)
	case trace.KindLoad, trace.KindStore, trace.KindRMW:
		d.access(ev)
	}
	return 0
}

func (d *LocksetDetector) lockHeld(tid trace.TID, obj uint64, held bool) {
	hs := d.held[tid]
	if hs == nil {
		hs = make(map[uint64]bool)
		d.held[tid] = hs
	}
	if held {
		hs[obj] = true
	} else {
		delete(hs, obj)
	}
}

func (d *LocksetDetector) access(ev trace.Event) {
	st := d.state[ev.Obj]
	if st == nil {
		st = &addrState{mode: virgin}
		d.state[ev.Obj] = st
	}
	acc := Access{TID: ev.TID, TCount: ev.TCount, Addr: ev.Obj, Write: ev.Kind.IsWrite()}
	rec := accessRec{acc: acc, seq: ev.Seq}
	if st.lastBy == nil {
		st.lastBy = make(map[trace.TID]accessRec)
	}
	defer func() { st.lastBy[ev.TID] = rec }()

	switch st.mode {
	case virgin:
		st.mode = exclusive
		st.owner = ev.TID
		return
	case exclusive:
		if ev.TID == st.owner {
			return
		}
		// Second thread: start intersecting locksets.
		st.candidate = copySet(d.held[ev.TID])
		if acc.Write {
			st.mode = sharedModified
		} else {
			st.mode = shared
		}
	case shared, sharedModified:
		st.candidate = intersect(st.candidate, d.held[ev.TID])
		if acc.Write {
			st.mode = sharedModified
		}
	}

	// A shared-modified address with an empty candidate lockset is a
	// (potential) race: no single lock protected every access. Pair the
	// flagged access with the latest access by another thread.
	if st.mode == sharedModified && len(st.candidate) == 0 {
		var other accessRec
		for tid, r := range st.lastBy {
			if tid != acc.TID && r.seq > other.seq {
				other = r
			}
		}
		if other.acc != (Access{}) {
			pair := Pair{First: other.acc, Second: acc, FirstSeq: other.seq, SecondSeq: ev.Seq}
			if k := pair.Key(); !d.seen[k] {
				d.seen[k] = true
				d.pairs = append(d.pairs, pair)
			}
		}
	}
}

func copySet(s map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersect(a, b map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
