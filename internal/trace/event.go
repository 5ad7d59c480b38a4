// Package trace defines the execution event model shared by the
// scheduler, the sketch recorders and the replayer, together with the
// on-disk log formats (sketch logs, input logs, full-order traces) and a
// compact varint-based binary codec.
//
// Every instrumentation point in an application produces one Event. The
// scheduler assigns the global sequence number at grant time; the global
// order of events *is* the execution. Sketching mechanisms record
// subsequences of it (see package sketch); the full order is captured
// only after a bug has been reproduced once.
package trace

import "fmt"

// TID identifies a simulated thread within one execution. Thread 0 is
// the initial (main) thread; children get ids in spawn order.
type TID int32

// NoTID marks an absent thread id.
const NoTID TID = -1

// Kind enumerates instrumentation-point operation kinds.
type Kind uint8

// Operation kinds. The numeric values are part of the log format; append
// only.
const (
	KindInvalid Kind = iota

	// Thread lifecycle.
	KindThreadStart // first point of a thread, Obj = parent tid
	KindThreadExit  // last point of a thread
	KindSpawn       // Obj = child tid
	KindJoin        // Obj = joined tid

	// Shared memory. Obj = cell address, Arg = value stored/loaded.
	KindLoad
	KindStore
	KindRMW // atomic read-modify-write (counts as both for races)

	// Synchronization. Obj = primitive id.
	KindLock
	KindUnlock
	KindRLock
	KindRUnlock
	KindWait      // condition wait: release + sleep
	KindWake      // condition wait resumed: lock reacquired
	KindSignal    // Obj = cond id
	KindBroadcast // Obj = cond id
	KindSemAcquire
	KindSemRelease
	KindBarrier // Obj = barrier id, Arg = generation

	// System calls. Obj = vsys call code, Arg = handle or size.
	KindSyscall

	// Control-flow instrumentation.
	KindFuncEnter // Obj = function id
	KindFuncExit  // Obj = function id
	KindBB        // Obj = basic-block id

	// Explicit scheduling point with no side effect.
	KindYield

	numKinds
)

// NumKinds is the number of defined kinds (including KindInvalid), for
// sizing per-kind counter arrays.
const NumKinds = int(numKinds)

// CostUnit is the logical-time cost of one instrumented memory access;
// all operation costs are expressed in tenths of it so that sub-access
// costs (like the instrumentation filter) stay integral.
const CostUnit = 10

var kindNames = [numKinds]string{
	KindInvalid:     "invalid",
	KindThreadStart: "thread-start",
	KindThreadExit:  "thread-exit",
	KindSpawn:       "spawn",
	KindJoin:        "join",
	KindLoad:        "load",
	KindStore:       "store",
	KindRMW:         "rmw",
	KindLock:        "lock",
	KindUnlock:      "unlock",
	KindRLock:       "rlock",
	KindRUnlock:     "runlock",
	KindWait:        "wait",
	KindWake:        "wake",
	KindSignal:      "signal",
	KindBroadcast:   "broadcast",
	KindSemAcquire:  "sem-acquire",
	KindSemRelease:  "sem-release",
	KindBarrier:     "barrier",
	KindSyscall:     "syscall",
	KindFuncEnter:   "func-enter",
	KindFuncExit:    "func-exit",
	KindBB:          "bb",
	KindYield:       "yield",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < numKinds }

// IsMemory reports whether k is a shared-memory access.
func (k Kind) IsMemory() bool { return k == KindLoad || k == KindStore || k == KindRMW }

// IsWrite reports whether k writes shared memory.
func (k Kind) IsWrite() bool { return k == KindStore || k == KindRMW }

// IsSync reports whether k is a synchronization operation (including
// thread lifecycle, which orders threads just like sync ops do).
func (k Kind) IsSync() bool {
	switch k {
	case KindLock, KindUnlock, KindRLock, KindRUnlock,
		KindWait, KindWake, KindSignal, KindBroadcast,
		KindSemAcquire, KindSemRelease, KindBarrier,
		KindSpawn, KindJoin, KindThreadStart, KindThreadExit:
		return true
	}
	return false
}

// IsSyscall reports whether k is a virtual system call (thread lifecycle
// operations are exposed to the SYS sketch as well, mirroring clone/wait
// being system calls on a real kernel).
func (k Kind) IsSyscall() bool {
	switch k {
	case KindSyscall, KindSpawn, KindJoin, KindThreadStart, KindThreadExit:
		return true
	}
	return false
}

// Event is one instrumentation-point operation in the global order.
type Event struct {
	Seq    uint64 // global sequence number, assigned at grant time
	TID    TID    // executing thread
	TCount uint64 // per-thread operation index (1-based)
	Kind   Kind
	Obj    uint64 // address / primitive id / call code / func or bb id
	Arg    uint64 // kind-specific argument
}

// String renders the event for diagnostics.
func (e Event) String() string {
	return fmt.Sprintf("#%d t%d/%d %s obj=%#x arg=%d", e.Seq, e.TID, e.TCount, e.Kind, e.Obj, e.Arg)
}
