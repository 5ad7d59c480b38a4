// Package ssync provides the synchronization primitives applications use
// under the simulated scheduler: Mutex, RWMutex, Cond, Semaphore,
// Barrier, WaitGroup and Once, with pthread-like semantics.
//
// Every operation is a scheduling point of the appropriate trace kind,
// which is exactly what the SYNC sketching mechanism records. Primitives
// are identified by a stable name: the 64-bit FNV-1a hash of the name is
// the object id in the event stream, so the id is identical across the
// production run and every replay attempt regardless of interleaving.
//
// All state mutation happens inside operation effects (scheduler
// goroutine) or in the calling thread between scheduling points; the
// channel handshakes in package sched order every access, so no host
// locking is needed or used.
package ssync

import (
	"hash/fnv"

	"repro/internal/sched"
	"repro/internal/trace"
)

// ID hashes a primitive name to its stable object id.
func ID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// injectLock consults the thread's failure-injection hook for a
// blocking acquisition and applies the verdict to op: extra modelled
// cost (slow, contended locks) or a wedge (the acquire never proceeds —
// a component hung holding shared state, the partial-shutdown class the
// scenario matrix drives; dependent threads pile up behind it and the
// run ends in deadlock detection). InjectFailOp has no meaning for a
// lock and is ignored; InjectPanic fires in finishLock after the
// acquisition, so the thread crashes while holding the primitive. With
// no hook installed this is one nil check, allocation-free.
func injectLock(t *sched.Thread, obj uint64, op *sched.Op) sched.InjectAction {
	act := t.Inject(sched.InjectPoint{Kind: sched.InjectLock, Obj: obj})
	if act.ExtraCost > 0 {
		op.Cost = op.Cost + trace.CostUnit + act.ExtraCost
	}
	if act.Outcome == sched.InjectWedge {
		op.Enabled = func() bool { return false }
		op.Desc += " (wedged)"
		op.BlockedOn = nil
	}
	return act
}

// finishLock completes an injected acquisition on the thread goroutine.
func finishLock(act sched.InjectAction, what string) {
	if act.Outcome == sched.InjectPanic {
		panic("injected fault: " + what)
	}
}

// Mutex is a non-reentrant mutual-exclusion lock.
type Mutex struct {
	name   string
	id     uint64
	holder trace.TID
}

// NewMutex returns a mutex with a stable name.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name, id: ID(name), holder: trace.NoTID}
}

// Name returns the mutex name.
func (m *Mutex) Name() string { return m.name }

// Obj returns the stable object id used in the event stream.
func (m *Mutex) Obj() uint64 { return m.id }

// Lock blocks until the mutex is free and acquires it.
func (m *Mutex) Lock(t *sched.Thread) {
	op := &sched.Op{
		Kind:      trace.KindLock,
		Obj:       m.id,
		Desc:      "lock " + m.name,
		Enabled:   func() bool { return m.holder == trace.NoTID },
		BlockedOn: func() trace.TID { return m.holder },
		Effect:    func(ctx *sched.EffectCtx) { m.holder = ctx.Self().ID() },
	}
	act := injectLock(t, m.id, op)
	t.Point(op)
	finishLock(act, "lock "+m.name)
}

// TryLock acquires the mutex iff it is currently free, reporting whether
// it did. The attempt is a scheduling point either way.
func (m *Mutex) TryLock(t *sched.Thread) bool {
	got := false
	t.Point(&sched.Op{
		Kind: trace.KindLock,
		Obj:  m.id,
		Desc: "trylock " + m.name,
		Effect: func(ctx *sched.EffectCtx) {
			if m.holder == trace.NoTID {
				m.holder = ctx.Self().ID()
				got = true
				ctx.Ev.Arg = 1
			}
		},
	})
	return got
}

// Unlock releases the mutex. Unlocking a mutex the caller does not hold
// fails the execution with a misuse assertion.
func (m *Mutex) Unlock(t *sched.Thread) {
	if m.holder != t.ID() {
		t.Fail("ssync-misuse", "unlock of %s not held by t%d", m.name, t.ID())
	}
	t.Point(&sched.Op{
		Kind:   trace.KindUnlock,
		Obj:    m.id,
		Desc:   "unlock " + m.name,
		Effect: func(ctx *sched.EffectCtx) { m.holder = trace.NoTID },
	})
}

// HeldBy reports the current holder (NoTID when free). Callers may only
// use this from a running thread, where the value is stable.
func (m *Mutex) HeldBy() trace.TID { return m.holder }

// RWMutex is a reader-preference read/write lock.
type RWMutex struct {
	name    string
	id      uint64
	readers int
	writer  trace.TID
}

// NewRWMutex returns a read/write lock with a stable name.
func NewRWMutex(name string) *RWMutex {
	return &RWMutex{name: name, id: ID(name), writer: trace.NoTID}
}

// Obj returns the stable object id.
func (m *RWMutex) Obj() uint64 { return m.id }

// RLock acquires the lock for reading.
func (m *RWMutex) RLock(t *sched.Thread) {
	t.Point(&sched.Op{
		Kind:    trace.KindRLock,
		Obj:     m.id,
		Desc:    "rlock " + m.name,
		Enabled: func() bool { return m.writer == trace.NoTID },
		Effect:  func(*sched.EffectCtx) { m.readers++ },
	})
}

// RUnlock releases a read acquisition.
func (m *RWMutex) RUnlock(t *sched.Thread) {
	if m.readers <= 0 {
		t.Fail("ssync-misuse", "runlock of %s with no readers", m.name)
	}
	t.Point(&sched.Op{
		Kind:   trace.KindRUnlock,
		Obj:    m.id,
		Desc:   "runlock " + m.name,
		Effect: func(*sched.EffectCtx) { m.readers-- },
	})
}

// Lock acquires the lock for writing.
func (m *RWMutex) Lock(t *sched.Thread) {
	op := &sched.Op{
		Kind:      trace.KindLock,
		Obj:       m.id,
		Desc:      "wlock " + m.name,
		Enabled:   func() bool { return m.writer == trace.NoTID && m.readers == 0 },
		BlockedOn: func() trace.TID { return m.writer },
		Effect:    func(ctx *sched.EffectCtx) { m.writer = ctx.Self().ID() },
	}
	act := injectLock(t, m.id, op)
	t.Point(op)
	finishLock(act, "wlock "+m.name)
}

// Unlock releases a write acquisition.
func (m *RWMutex) Unlock(t *sched.Thread) {
	if m.writer != t.ID() {
		t.Fail("ssync-misuse", "unlock of %s not write-held by t%d", m.name, t.ID())
	}
	t.Point(&sched.Op{
		Kind:   trace.KindUnlock,
		Obj:    m.id,
		Desc:   "wunlock " + m.name,
		Effect: func(*sched.EffectCtx) { m.writer = trace.NoTID },
	})
}

// Cond is a pthread-style condition variable with Mesa semantics: Wait
// atomically releases the associated mutex and sleeps; Signal wakes one
// waiter, which reacquires the mutex before Wait returns; a Signal with
// no waiters is lost. Lost wakeups therefore hang exactly as they do in
// real programs, where the deadlock detector reports them.
type Cond struct {
	name    string
	id      uint64
	waiters []*sched.Thread
}

// NewCond returns a condition variable with a stable name.
func NewCond(name string) *Cond {
	return &Cond{name: name, id: ID(name)}
}

// Obj returns the stable object id.
func (c *Cond) Obj() uint64 { return c.id }

// Wait releases m, sleeps until signalled, reacquires m and returns.
// The caller must hold m. As with pthreads, callers must re-check their
// predicate in a loop.
func (c *Cond) Wait(t *sched.Thread, m *Mutex) {
	if m.holder != t.ID() {
		t.Fail("ssync-misuse", "cond %s wait without holding %s", c.name, m.name)
	}
	t.Point(&sched.Op{
		Kind: trace.KindWait,
		Obj:  c.id,
		Desc: "wait " + c.name,
		Effect: func(ctx *sched.EffectCtx) {
			m.holder = trace.NoTID
			c.waiters = append(c.waiters, ctx.Self())
			ctx.Sleep()
		},
	})
	// Point returns only after the wake op (installed by Signal or
	// Broadcast) has been granted, i.e. with m reacquired.
}

func (c *Cond) wakeOp(w *sched.Thread, m *Mutex) *sched.Op {
	return &sched.Op{
		Kind:    trace.KindWake,
		Obj:     c.id,
		Desc:    "wake " + c.name + " reacquire " + m.name,
		Enabled: func() bool { return m.holder == trace.NoTID },
		Effect:  func(ctx *sched.EffectCtx) { m.holder = w.ID() },
	}
}

// Signal wakes one waiter if any. The caller should hold the associated
// mutex (not enforced, as with pthreads).
func (c *Cond) Signal(t *sched.Thread, m *Mutex) {
	t.Point(&sched.Op{
		Kind: trace.KindSignal,
		Obj:  c.id,
		Desc: "signal " + c.name,
		Effect: func(ctx *sched.EffectCtx) {
			if len(c.waiters) == 0 {
				return // lost signal
			}
			w := c.waiters[0]
			c.waiters = c.waiters[1:]
			ctx.Ev.Arg = 1
			ctx.WakeWith(w, c.wakeOp(w, m))
		},
	})
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast(t *sched.Thread, m *Mutex) {
	t.Point(&sched.Op{
		Kind: trace.KindBroadcast,
		Obj:  c.id,
		Desc: "broadcast " + c.name,
		Effect: func(ctx *sched.EffectCtx) {
			ctx.Ev.Arg = uint64(len(c.waiters))
			for _, w := range c.waiters {
				ctx.WakeWith(w, c.wakeOp(w, m))
			}
			c.waiters = nil
		},
	})
}

// Semaphore is a counting semaphore.
type Semaphore struct {
	name  string
	id    uint64
	count int
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(name string, initial int) *Semaphore {
	return &Semaphore{name: name, id: ID(name), count: initial}
}

// Obj returns the stable object id.
func (s *Semaphore) Obj() uint64 { return s.id }

// Acquire blocks until the count is positive and decrements it.
func (s *Semaphore) Acquire(t *sched.Thread) {
	op := &sched.Op{
		Kind:    trace.KindSemAcquire,
		Obj:     s.id,
		Desc:    "sem-acquire " + s.name,
		Enabled: func() bool { return s.count > 0 },
		Effect:  func(*sched.EffectCtx) { s.count-- },
	}
	act := injectLock(t, s.id, op)
	t.Point(op)
	finishLock(act, "sem-acquire "+s.name)
}

// Release increments the count.
func (s *Semaphore) Release(t *sched.Thread) {
	t.Point(&sched.Op{
		Kind:   trace.KindSemRelease,
		Obj:    s.id,
		Desc:   "sem-release " + s.name,
		Effect: func(*sched.EffectCtx) { s.count++ },
	})
}

// Barrier is a cyclic barrier for a fixed party count.
type Barrier struct {
	name    string
	id      uint64
	parties int
	gen     uint64
	waiting []*sched.Thread
}

// NewBarrier returns a barrier that releases once parties threads arrive.
func NewBarrier(name string, parties int) *Barrier {
	if parties < 1 {
		panic("ssync: barrier needs at least one party")
	}
	return &Barrier{name: name, id: ID(name), parties: parties}
}

// Obj returns the stable object id.
func (b *Barrier) Obj() uint64 { return b.id }

// Await blocks until all parties have arrived at the current generation.
func (b *Barrier) Await(t *sched.Thread) {
	t.Point(&sched.Op{
		Kind: trace.KindBarrier,
		Obj:  b.id,
		Desc: "barrier " + b.name,
		Effect: func(ctx *sched.EffectCtx) {
			ctx.Ev.Arg = b.gen
			if len(b.waiting)+1 < b.parties {
				b.waiting = append(b.waiting, ctx.Self())
				ctx.Sleep()
				return
			}
			// Last arrival: release the generation.
			gen := b.gen
			b.gen++
			for _, w := range b.waiting {
				ctx.WakeWith(w, &sched.Op{
					Kind: trace.KindWake,
					Obj:  b.id,
					Arg:  gen,
					Desc: "barrier-release " + b.name,
				})
			}
			b.waiting = nil
		},
	})
}

// WaitGroup counts outstanding work, like sync.WaitGroup. Add and Done
// are semaphore-release-class events; Wait is a blocking acquire-class
// event enabled when the count reaches zero.
type WaitGroup struct {
	name  string
	id    uint64
	count int
}

// NewWaitGroup returns a wait group with a stable name.
func NewWaitGroup(name string) *WaitGroup {
	return &WaitGroup{name: name, id: ID(name)}
}

// Obj returns the stable object id.
func (w *WaitGroup) Obj() uint64 { return w.id }

// Add adds delta to the count.
func (w *WaitGroup) Add(t *sched.Thread, delta int) {
	t.Point(&sched.Op{
		Kind: trace.KindSemRelease,
		Obj:  w.id,
		Arg:  uint64(int64(delta)),
		Desc: "wg-add " + w.name,
		Effect: func(*sched.EffectCtx) {
			w.count += delta
		},
	})
	if w.count < 0 {
		t.Fail("ssync-misuse", "waitgroup %s went negative", w.name)
	}
}

// Done decrements the count.
func (w *WaitGroup) Done(t *sched.Thread) { w.Add(t, -1) }

// Wait blocks until the count is zero.
func (w *WaitGroup) Wait(t *sched.Thread) {
	t.Point(&sched.Op{
		Kind:    trace.KindSemAcquire,
		Obj:     w.id,
		Desc:    "wg-wait " + w.name,
		Enabled: func() bool { return w.count == 0 },
	})
}

// Once runs a function exactly once across threads; late callers block
// until the first caller's function has completed (like sync.Once).
type Once struct {
	name    string
	id      uint64
	running bool
	done    bool
}

// NewOnce returns a one-shot guard with a stable name.
func NewOnce(name string) *Once {
	return &Once{name: name, id: ID(name)}
}

// Obj returns the stable object id.
func (o *Once) Obj() uint64 { return o.id }

// Do invokes f if no other thread has; otherwise it blocks until the
// winning invocation finishes.
func (o *Once) Do(t *sched.Thread, f func()) {
	entered := false
	t.Point(&sched.Op{
		Kind:    trace.KindLock,
		Obj:     o.id,
		Desc:    "once " + o.name,
		Enabled: func() bool { return o.done || !o.running },
		Effect: func(ctx *sched.EffectCtx) {
			if !o.done {
				o.running = true
				entered = true
				ctx.Ev.Arg = 1
			}
		},
	})
	if !entered {
		return
	}
	f()
	t.Point(&sched.Op{
		Kind: trace.KindUnlock,
		Obj:  o.id,
		Desc: "once-done " + o.name,
		Effect: func(*sched.EffectCtx) {
			o.done = true
			o.running = false
		},
	})
}
