package sched

import (
	"fmt"

	"repro/internal/trace"
)

// Op describes one instrumented operation a thread is about to perform.
// The scheduler evaluates Enabled each round; when the op is granted,
// Effect runs in the scheduler loop (with every thread parked) and may
// mutate any simulation state.
type Op struct {
	Kind trace.Kind
	Obj  uint64
	Arg  uint64
	// Enabled reports whether the op can currently proceed (e.g., a lock
	// acquire is enabled iff the mutex is free). nil means always.
	//
	// Enabled must read only simulation state mutated inside op effects
	// (plus a target thread's done-state, as Join does). The scheduler
	// evaluates it when it builds each pick's view, with every thread
	// parked, so under this contract enabledness changes only at a
	// commit or an exit: the candidate set is a function of the
	// committed prefix, and an order replay, a prefix re-execution and
	// a directed attempt that reach the same step see the same
	// candidates.
	Enabled func() bool
	// Effect applies the op at grant time. It may adjust the committed
	// event via ctx.Ev (e.g., record the loaded value in Arg), put the
	// thread to sleep, wake other threads, or spawn threads.
	Effect func(ctx *EffectCtx)
	// Cost is the op's logical cost in time units (tenths of one
	// instrumented memory access; see trace.CostUnit). 0 means one
	// access, trace.CostUnit.
	Cost uint64
	// Desc, if set, labels the op in deadlock reports.
	Desc string
	// BlockedOn, if set, names the thread this op is currently waiting
	// for (the holder of the contended resource); the deadlock detector
	// uses it to extract waits-for cycles and to name the holder in its
	// report. Return trace.NoTID when the holder is unknown or the op is
	// not blocked.
	BlockedOn func() trace.TID
}

func (op *Op) cost() uint64 {
	if op.Cost == 0 {
		return trace.CostUnit
	}
	return op.Cost
}

func (op *Op) describe() string {
	if op == nil {
		return "?"
	}
	if op.Desc != "" {
		return fmt.Sprintf("%s (%s obj=%#x)", op.Desc, op.Kind, op.Obj)
	}
	return fmt.Sprintf("%s obj=%#x", op.Kind, op.Obj)
}

// EffectCtx is passed to Op.Effect at grant time.
type EffectCtx struct {
	s *Scheduler
	t *Thread
	// Ev is the event about to be committed; Effect may fill Arg (e.g.,
	// the value a load observed) before observers see it.
	Ev *trace.Event
}

// Self returns the thread performing the op.
func (c *EffectCtx) Self() *Thread { return c.t }

// Sleep keeps the performing thread blocked after the effect: it stays
// at its point with no pending op until another thread's effect calls
// WakeWith. Used for condition-variable wait. Only the final op of a
// PointBatch may sleep.
func (c *EffectCtx) Sleep() { c.s.sleepReq = true }

// WakeWith installs op as the pending operation of an asleep thread,
// making it schedulable again. The woken thread's Point call returns
// only when that op is later granted.
func (c *EffectCtx) WakeWith(t *Thread, op *Op) {
	if t.state != stateAsleep {
		panic(fmt.Sprintf("sched: WakeWith on thread %d in state %d", t.id, t.state))
	}
	t.pending = op
	t.state = stateParked
}

// Spawn creates a new thread running fn and returns it. Must only be
// called from the effect of a KindSpawn op; the spawn event's Arg is set
// to the child id.
func (c *EffectCtx) Spawn(name string, fn func(*Thread)) *Thread {
	child := c.s.addThread(name, c.t.id)
	c.Ev.Arg = uint64(uint32(child.id))
	c.s.spawn(child, fn)
	return child
}

// Now returns the current global step count.
func (c *EffectCtx) Now() uint64 { return c.s.step }

// Thread is one simulated application thread, run as a coroutine of
// the scheduler loop. All methods must be called from the thread's own
// function — the fn given to Run or Spawn and what it calls — because
// they suspend the caller at scheduling points.
type Thread struct {
	id     trace.TID
	name   string
	parent trace.TID
	s      *Scheduler

	// The thread's coroutine (coro.go): yield suspends it at a point,
	// next resumes it, stop unwinds it. All three are nil once the
	// thread has exited.
	yield func(announcement) bool
	next  func() (announcement, bool)
	stop  func()

	// The fields below are written by the loop while the thread is
	// suspended and by the thread while it runs; only one of the two
	// runs at a time, and each resume and yield orders the transfer.
	pending *Op
	state   threadState
	tcount  uint64
	// batch is the straight-line run declared with PointBatch, if any;
	// batch[batchPos-1] == pending while the batch is being consumed.
	// The scheduler advances through it without granting until the last
	// op commits.
	batch    []*Op
	batchPos int

	// yieldOp backs Yield without a per-call allocation; the op is
	// immutable after addThread.
	yieldOp Op
}

// remainingRun reports how many declared straight-line ops the thread
// has left, counting the pending one (1 for a plain op).
func (t *Thread) remainingRun() int {
	if t.batch != nil {
		return len(t.batch) - t.batchPos + 1
	}
	return 1
}

// ID returns the thread id.
func (t *Thread) ID() trace.TID { return t.id }

// Name returns the debug name given at spawn.
func (t *Thread) Name() string { return t.name }

// Point parks the thread at an instrumented operation and returns after
// the scheduler grants it and the effect has been applied. This is the
// only blocking primitive; everything else builds on it.
func (t *Thread) Point(op *Op) {
	if op.Kind == trace.KindInvalid {
		panic("sched: Point with invalid kind")
	}
	t.park(announcement{op: op})
}

// park yields a to the scheduler loop and returns when the loop resumes
// the thread. If the run is shutting down, the yield returns false and
// park unwinds the thread with the internal stop panic.
func (t *Thread) park(a announcement) {
	if !t.yield(a) {
		panic(&Failure{Reason: reasonStopped})
	}
}

// PointBatch parks the thread at a pre-declared straight-line run of
// operations and returns after the last one has been committed. Each op
// is a real scheduling point — it is separately granted (or withheld)
// by the scheduler, appears as its own committed event, and a strategy
// can interleave other threads between any two batch ops — but the
// whole batch costs a single yield and resume instead of one per op.
//
// Batch ops must be unconditional (nil Enabled): a batch is a
// declaration that the thread will perform these ops back to back with
// no blocking in between, which is what lets the scheduler commit them
// without handing control back. Effects are allowed (loads, stores,
// spawns); only the final op may Sleep. Intended for effect-light
// straight-line code such as the compute loops in fft/lu/radix/barnes.
func (t *Thread) PointBatch(ops ...*Op) {
	switch len(ops) {
	case 0:
		return
	case 1:
		t.Point(ops[0])
		return
	}
	for _, op := range ops {
		if op.Kind == trace.KindInvalid {
			panic("sched: PointBatch with invalid kind")
		}
		if op.Enabled != nil {
			panic("sched: PointBatch op with an Enabled gate (batches must be unconditional)")
		}
	}
	t.park(announcement{op: ops[0], run: ops})
}

// Yield parks the thread at a pure scheduling point with no effect.
func (t *Thread) Yield() {
	t.Point(&t.yieldOp)
}

// Spawn starts fn as a new thread and returns its handle. The spawn
// itself is a scheduling point (and a sync/syscall-class event for the
// sketches, mirroring clone(2)).
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	var child *Thread
	t.Point(&Op{
		Kind: trace.KindSpawn,
		Desc: "spawn " + name,
		Effect: func(ctx *EffectCtx) {
			child = ctx.Spawn(name, fn)
		},
	})
	return child
}

// Join blocks until other has exited. Join is a scheduling point enabled
// only once the target is done, mirroring pthread_join.
func (t *Thread) Join(other *Thread) {
	t.Point(&Op{
		Kind:    trace.KindJoin,
		Obj:     uint64(uint32(other.id)),
		Desc:    "join " + other.name,
		Enabled: func() bool { return other.state == stateDone },
	})
}

// Fail aborts the execution with an assertion failure carrying a stable
// bug id; the harness matches it against the corpus entry.
func (t *Thread) Fail(bugID, format string, args ...any) {
	panic(&Failure{
		Reason: ReasonAssert,
		BugID:  bugID,
		TID:    t.id,
		Step:   t.s.step,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// Check fails the execution with bugID unless cond holds.
func (t *Thread) Check(cond bool, bugID, format string, args ...any) {
	if !cond {
		t.Fail(bugID, format, args...)
	}
}
