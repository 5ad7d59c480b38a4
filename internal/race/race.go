// Package race implements the happens-before race detector the PRES
// replayer uses for feedback generation: during every replay attempt it
// identifies pairs of conflicting, concurrent shared-memory accesses
// whose unrecorded outcome the next attempt can flip.
//
// The happens-before relation is built from program order plus
// release/acquire edges through synchronization objects (every
// operation on the same object is conservatively treated as both a
// release and an acquire, which is exact for locks and conservative for
// the rest), spawn->start and exit->join edges, and message-passing
// edges from queue send to queue receive. Plain system calls do NOT
// synchronize memory — treating them as synchronization would serialize
// every thread through the kernel and hide exactly the races PRES needs
// to flip.
package race

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vsys"
)

// Access pins one memory access by its stable identity: the thread and
// the thread-local operation index (deterministic per thread given the
// same inputs), plus the address. This identity survives re-execution,
// which is what lets a flip learned in one attempt be enforced in the
// next.
type Access struct {
	TID    trace.TID
	TCount uint64
	Addr   uint64
	Write  bool
}

// String renders the access for diagnostics, resolving the address to
// its variable name when the allocation registered one.
func (a Access) String() string {
	rw := "read of"
	if a.Write {
		rw = "write of"
	}
	return fmt.Sprintf("t%d#%d %s %s", a.TID, a.TCount, rw, mem.NameOf(a.Addr))
}

// Pair is one observed race: First executed before Second in this
// attempt, they conflict, and neither happens-before the other.
type Pair struct {
	First, Second Access
	// FirstSeq and SecondSeq are the global steps at which the two
	// accesses executed; feedback prefers races closest to the failure
	// point, and tight races (small windows) flip more reliably.
	FirstSeq  uint64
	SecondSeq uint64
}

// Window returns the distance in global steps between the two accesses.
func (p Pair) Window() uint64 { return p.SecondSeq - p.FirstSeq }

// PairKey is a pair's identity: the address plus the (thread, count)
// identity of each access, in execution order. It is comparable, so
// dedup sets key maps on it without formatting a string per report.
// Two pairs have equal keys exactly when they race on the same address
// between the same two accesses in the same order; the access kinds
// and the global steps are not part of the identity.
type PairKey struct {
	Addr         uint64
	FirstTID     trace.TID
	FirstTCount  uint64
	SecondTID    trace.TID
	SecondTCount uint64
}

// Key returns a stable identity for deduplication across attempts.
func (p Pair) Key() PairKey {
	return PairKey{
		Addr:         p.First.Addr,
		FirstTID:     p.First.TID,
		FirstTCount:  p.First.TCount,
		SecondTID:    p.Second.TID,
		SecondTCount: p.Second.TCount,
	}
}

// String renders the pair for diagnostics.
func (p Pair) String() string {
	return fmt.Sprintf("race{%v <-> %v @ step %d}", p.First, p.Second, p.SecondSeq)
}

// historyDepth bounds how many prior accesses per address are retained;
// racing partners further back than this are rare and the memory cost of
// keeping everything is quadratic-ish on hot addresses.
const historyDepth = 8

type accessRec struct {
	acc Access
	seq uint64
	vc  vclock.VC
}

// Detector consumes the event stream of one execution and accumulates
// race pairs. It implements sched.Observer with zero recording cost
// (it runs at diagnosis time, not during production).
type Detector struct {
	threads map[trace.TID]vclock.VC
	objects map[uint64]vclock.VC // sync/syscall object clocks
	born    map[trace.TID]vclock.VC
	exited  map[trace.TID]vclock.VC

	writes map[uint64][]accessRec // recent writes per address
	reads  map[uint64][]accessRec // recent reads per address

	pairs []Pair
	seen  map[PairKey]bool
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{
		threads: make(map[trace.TID]vclock.VC),
		objects: make(map[uint64]vclock.VC),
		born:    make(map[trace.TID]vclock.VC),
		exited:  make(map[trace.TID]vclock.VC),
		writes:  make(map[uint64][]accessRec),
		reads:   make(map[uint64][]accessRec),
		seen:    make(map[PairKey]bool),
	}
}

// Pairs returns the races observed so far, in execution order of their
// second access.
func (d *Detector) Pairs() []Pair { return d.pairs }

// OnEvent implements sched.Observer.
func (d *Detector) OnEvent(ev trace.Event) uint64 {
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
		// Release-acquire through the object: acquire first (observe
		// prior ops on the object), release after the tick below.
		vc = vc.Join(d.objects[ev.Obj])
	case ev.Kind == trace.KindSyscall && ev.Obj == vsys.CallRecv:
		// Message passing: the receive acquires what senders released.
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

// queueKey namespaces queue objects away from sync-object ids. The
// queue id arrives in the event's Arg (the Obj slot carries the call
// code for syscalls).
func queueKey(q uint64) uint64 { return q ^ 0x9e3779b97f4a7c15 }

func (d *Detector) checkAccess(ev trace.Event, vc vclock.VC) {
	acc := Access{TID: ev.TID, TCount: ev.TCount, Addr: ev.Obj, Write: ev.Kind.IsWrite()}
	rec := accessRec{acc: acc, seq: ev.Seq, vc: vc.Clone()}

	// A write races with concurrent prior reads and writes; a read races
	// with concurrent prior writes.
	d.reportConcurrent(d.writes[acc.Addr], rec, ev.Seq)
	if acc.Write {
		d.reportConcurrent(d.reads[acc.Addr], rec, ev.Seq)
		d.writes[acc.Addr] = appendBounded(d.writes[acc.Addr], rec)
	} else {
		d.reads[acc.Addr] = appendBounded(d.reads[acc.Addr], rec)
	}
}

func (d *Detector) reportConcurrent(prior []accessRec, cur accessRec, seq uint64) {
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

func appendBounded(s []accessRec, r accessRec) []accessRec {
	s = append(s, r)
	if len(s) > historyDepth {
		copy(s, s[1:])
		s = s[:historyDepth]
	}
	return s
}
