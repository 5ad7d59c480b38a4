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
// and the global steps are not part of the identity. The three words
// come before the two TIDs so the key packs into 32 bytes, not 40.
type PairKey struct {
	Addr         uint64
	FirstTCount  uint64
	SecondTCount uint64
	FirstTID     trace.TID
	SecondTID    trace.TID
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

// historyDepth bounds how many prior writes and how many prior reads
// are retained per address; racing partners further back than this are
// rare and the memory cost of keeping everything is quadratic-ish on
// hot addresses.
const historyDepth = 8

// accessRec is one retained access. clock is the access's epoch: its
// thread's own clock component right after the access ticked it. The
// epoch alone decides happens-before against any later access (see
// reportConcurrent), so no vector clock is kept per access.
type accessRec struct {
	acc   Access
	seq   uint64
	clock uint64
}

// ring holds an address's historyDepth most recent accesses of one
// kind, overwriting the oldest.
type ring struct {
	recs [historyDepth]accessRec
	n    int // accesses ever pushed; the ring holds the last min(n, historyDepth)
}

func (r *ring) push(rec accessRec) {
	r.recs[r.n%historyDepth] = rec
	r.n++
}

// history is one address's retained accesses.
type history struct {
	writes, reads ring
}

// Detector consumes the event stream of one execution and accumulates
// race pairs. It implements sched.Observer with zero recording cost
// (it runs at diagnosis time, not during production).
type Detector struct {
	threads []vclock.VC          // per-thread clocks, indexed by TID (the scheduler hands TIDs out densely)
	objects map[uint64]vclock.VC // sync/syscall object clocks
	born    map[trace.TID]vclock.VC
	exited  map[trace.TID]vclock.VC

	history map[uint64]*history // recent accesses per address
	free    []*history          // histories Reset released, for checkAccess to reuse

	pairs []Pair
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{
		objects: make(map[uint64]vclock.VC),
		born:    make(map[trace.TID]vclock.VC),
		exited:  make(map[trace.TID]vclock.VC),
		history: make(map[uint64]*history),
	}
}

// Pairs returns the races observed so far, in execution order of their
// second access. The slice is valid until the next Reset.
func (d *Detector) Pairs() []Pair { return d.pairs }

// Reset empties the detector for a new execution while keeping its
// storage: the maps keep their buckets, the pair slice its array, and
// each address's history moves to a free list that checkAccess draws
// from. A reset detector reports exactly the pairs a fresh one would.
func (d *Detector) Reset() {
	for _, h := range d.history {
		d.free = append(d.free, h)
	}
	clear(d.history)
	clear(d.objects)
	clear(d.born)
	clear(d.exited)
	d.threads = d.threads[:0]
	d.pairs = d.pairs[:0]
}

// OnEvent implements sched.Observer.
func (d *Detector) OnEvent(ev trace.Event) uint64 {
	tid := ev.TID
	for int(tid) >= len(d.threads) {
		d.threads = append(d.threads, nil)
	}
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
	h := d.history[ev.Obj]
	if h == nil {
		if n := len(d.free); n > 0 {
			// A ring reads only the records its count says were pushed,
			// so zeroing the counts empties a reused history.
			h = d.free[n-1]
			d.free = d.free[:n-1]
			h.writes.n, h.reads.n = 0, 0
		} else {
			h = new(history)
		}
		d.history[ev.Obj] = h
	}
	cur := Access{TID: ev.TID, TCount: ev.TCount, Addr: ev.Obj, Write: ev.Kind.IsWrite()}

	// A write races with concurrent prior reads and writes; a read races
	// with concurrent prior writes.
	d.reportConcurrent(&h.writes, cur, ev.Seq, vc)
	rec := accessRec{acc: cur, seq: ev.Seq, clock: vc[ev.TID]}
	if cur.Write {
		d.reportConcurrent(&h.reads, cur, ev.Seq, vc)
		h.writes.push(rec)
	} else {
		h.reads.push(rec)
	}
}

// reportConcurrent appends a pair for every retained access in r, oldest
// first, that is concurrent with cur (clock vc, just ticked at cur). A
// prior access p happens before cur exactly when vc has seen p's epoch:
// clocks only move by whole-clock joins, so having seen p's thread at
// p.clock means having seen its whole clock at p, and cur's own
// component was ticked at cur, so "at most" is already "strictly
// before". cur's thread has always seen its own earlier accesses, so a
// thread never races with itself. No dedup is needed: cur's
// (TID, TCount) is unique in the execution and each retained access
// sits once in one ring, so every pair reported is new.
func (d *Detector) reportConcurrent(r *ring, cur Access, seq uint64, vc vclock.VC) {
	for i := max(0, r.n-historyDepth); i < r.n; i++ {
		p := &r.recs[i%historyDepth]
		if p.clock > vc.Get(int(p.acc.TID)) {
			d.pairs = append(d.pairs, Pair{First: p.acc, Second: cur, FirstSeq: p.seq, SecondSeq: seq})
		}
	}
}
