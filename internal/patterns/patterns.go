// Package patterns is a catalog of canonical concurrency-bug patterns —
// the taxonomy the paper's corpus instantiates — as small parameterized
// programs with known ground truth. Each pattern is tiny enough for the
// exhaustive explorer to *prove* facts about (the buggy variant fails
// under some schedule, the fixed variant under none), and each is a
// regression battery for the replayer that is independent of the tuned
// application corpus.
//
// The catalog covers: single- and multi-variable atomicity violations,
// publish- and teardown-order violations, AB/BA and dining-philosopher
// deadlocks, the lost-wakeup hang, and a barrier misuse. The scenario
// generator (internal/scenario) owns four more shapes — the lost wakeup
// under producer load, a bounded livelock, the ABA problem and broken
// double-checked locking — as the templates of its random programs.
package patterns

import (
	"fmt"

	"repro/internal/appkit"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/ssync"
)

// Pattern is one catalog entry.
type Pattern struct {
	// Name identifies the pattern; the buggy variant fails with BugID.
	Name  string
	BugID string
	// Class is the taxonomy bucket: "atomicity", "order", "deadlock",
	// "hang" or "livelock". Deadlock and hang patterns manifest as
	// detected deadlocks, the rest as assertions with BugID.
	Class string
	// Build returns the program; FixBugs in the Env selects the correct
	// synchronization.
	Build func() *appkit.Program
}

// All returns the catalog.
func All() []Pattern {
	return []Pattern{
		{"single-var-atomicity", "pat-sva", "atomicity", singleVarAtomicity},
		{"multi-var-atomicity", "pat-mva", "atomicity", multiVarAtomicity},
		{"publish-order", "pat-pub", "order", publishOrder},
		{"teardown-order", "pat-tear", "order", teardownOrder},
		{"abba-deadlock", "pat-abba-deadlock", "deadlock", abbaDeadlock},
		{"philosophers-deadlock", "pat-phil-deadlock", "deadlock", philosophers},
		{"lost-wakeup", "pat-lost-deadlock", "hang", lostWakeup},
		{"barrier-misuse", "pat-barrier", "order", barrierMisuse},
	}
}

// Get returns the named pattern.
func Get(name string) (Pattern, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}

// singleVarAtomicity: the unprotected read-modify-write counter.
func singleVarAtomicity() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-sva",
		Bugs: []string{"pat-sva"},
		Run: func(env *appkit.Env) {
			th := env.T
			n := env.ScaleOr(2)
			ctr := mem.NewCell("pat.sva.ctr", 0)
			m := ssync.NewMutex("pat.sva.lock")
			var ws []*sched.Thread
			for i := 0; i < 2; i++ {
				ws = append(ws, th.Spawn("w", func(t *sched.Thread) {
					for j := 0; j < n; j++ {
						if env.FixBugs {
							m.Lock(t)
						}
						v := ctr.Load(t)
						ctr.Store(t, v+1)
						if env.FixBugs {
							m.Unlock(t)
						}
					}
				}))
			}
			for _, w := range ws {
				th.Join(w)
			}
			th.Check(ctr.Peek() == uint64(2*n), "pat-sva", "lost update: %d", ctr.Peek())
		},
	}
}

// multiVarAtomicity: two variables that must change together, read
// apart.
func multiVarAtomicity() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-mva",
		Bugs: []string{"pat-mva"},
		Run: func(env *appkit.Env) {
			th := env.T
			lo := mem.NewCell("pat.mva.lo", 0)
			hi := mem.NewCell("pat.mva.hi", 0)
			m := ssync.NewMutex("pat.mva.lock")
			writer := th.Spawn("writer", func(t *sched.Thread) {
				for i := uint64(1); i <= 2; i++ {
					if env.FixBugs {
						m.Lock(t)
					}
					lo.Store(t, i)
					hi.Store(t, i)
					if env.FixBugs {
						m.Unlock(t)
					}
				}
			})
			reader := th.Spawn("reader", func(t *sched.Thread) {
				if env.FixBugs {
					m.Lock(t)
				}
				a := lo.Load(t)
				b := hi.Load(t)
				if env.FixBugs {
					m.Unlock(t)
				}
				t.Check(a == b, "pat-mva", "torn pair: lo=%d hi=%d", a, b)
			})
			th.Join(writer)
			th.Join(reader)
		},
	}
}

// publishOrder: the handle escapes before the object is initialized.
func publishOrder() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-pub",
		Bugs: []string{"pat-pub"},
		Run: func(env *appkit.Env) {
			th := env.T
			body := mem.NewCell("pat.pub.body", 0)
			ptr := mem.NewCell("pat.pub.ptr", 0)
			pub := th.Spawn("publisher", func(t *sched.Thread) {
				if env.FixBugs {
					body.Store(t, 7)
					ptr.Store(t, 1)
				} else {
					ptr.Store(t, 1) // BUG: pointer first
					body.Store(t, 7)
				}
			})
			use := th.Spawn("user", func(t *sched.Thread) {
				if ptr.Load(t) == 1 {
					t.Check(body.Load(t) == 7, "pat-pub", "dangling use")
				}
			})
			th.Join(pub)
			th.Join(use)
		},
	}
}

// teardownOrder: a resource freed while a late touch is outstanding.
func teardownOrder() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-tear",
		Bugs: []string{"pat-tear"},
		Run: func(env *appkit.Env) {
			th := env.T
			freed := mem.NewCell("pat.tear.freed", 0)
			done := ssync.NewWaitGroup("pat.tear.done")
			done.Add(th, 1)
			worker := th.Spawn("worker", func(t *sched.Thread) {
				done.Done(t) // BUG: progress published before the last touch
				v := freed.Load(t)
				t.Check(v == 0, "pat-tear", "use after free")
			})
			if env.FixBugs {
				th.Join(worker) // the missing join
				freed.Store(th, 1)
			} else {
				done.Wait(th)
				freed.Store(th, 1)
				th.Join(worker)
			}
		},
	}
}

// abbaDeadlock: the classic lock-order inversion.
func abbaDeadlock() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-abba",
		Bugs: []string{"pat-abba-deadlock"},
		Run: func(env *appkit.Env) {
			th := env.T
			a := ssync.NewMutex("pat.abba.A")
			b := ssync.NewMutex("pat.abba.B")
			pair := func(first, second *ssync.Mutex) func(*sched.Thread) {
				return func(t *sched.Thread) {
					first.Lock(t)
					second.Lock(t)
					second.Unlock(t)
					first.Unlock(t)
				}
			}
			t1 := th.Spawn("t1", pair(a, b))
			var t2 *sched.Thread
			if env.FixBugs {
				t2 = th.Spawn("t2", pair(a, b)) // consistent order
			} else {
				t2 = th.Spawn("t2", pair(b, a)) // inversion
			}
			th.Join(t1)
			th.Join(t2)
		},
	}
}

// philosophers: workers each take their own token then their
// neighbor's, semaphore-based (the ring variant lives in the radix
// corpus app; two philosophers keep the schedule space provable).
func philosophers() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-phil",
		Bugs: []string{"pat-phil-deadlock"},
		Run: func(env *appkit.Env) {
			th := env.T
			n := 2
			var forks []*ssync.Semaphore
			for i := 0; i < n; i++ {
				forks = append(forks, ssync.NewSemaphore(fmt.Sprintf("pat.phil.fork%d", i), 1))
			}
			var ws []*sched.Thread
			for i := 0; i < n; i++ {
				i := i
				ws = append(ws, th.Spawn("phil", func(t *sched.Thread) {
					lo, hi := i, (i+1)%n
					if env.FixBugs && lo > hi {
						lo, hi = hi, lo // global order breaks the cycle
					}
					forks[lo].Acquire(t)
					forks[hi].Acquire(t)
					forks[hi].Release(t)
					forks[lo].Release(t)
				}))
			}
			for _, w := range ws {
				th.Join(w)
			}
		},
	}
}

// lostWakeup: the check-then-wait without holding the lock across both.
func lostWakeup() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-lost",
		Bugs: []string{"pat-lost-deadlock"},
		Run: func(env *appkit.Env) {
			th := env.T
			m := ssync.NewMutex("pat.lost.lock")
			c := ssync.NewCond("pat.lost.cond")
			ready := mem.NewCell("pat.lost.ready", 0)
			waiter := th.Spawn("waiter", func(t *sched.Thread) {
				if env.FixBugs {
					m.Lock(t)
					for ready.Load(t) == 0 {
						c.Wait(t, m)
					}
					m.Unlock(t)
					return
				}
				// BUG: predicate checked outside the lock; the signal
				// can land between the check and the wait.
				if ready.Load(t) == 0 {
					m.Lock(t)
					c.Wait(t, m)
					m.Unlock(t)
				}
			})
			m.Lock(th)
			ready.Store(th, 1)
			c.Signal(th, m)
			m.Unlock(th)
			th.Join(waiter)
		},
	}
}

// barrierMisuse: one worker skips a phase barrier and reads early.
func barrierMisuse() *appkit.Program {
	return &appkit.Program{
		Name: "pattern-barrier",
		Bugs: []string{"pat-barrier"},
		Run: func(env *appkit.Env) {
			th := env.T
			b := ssync.NewBarrier("pat.bar", 2)
			data := mem.NewCell("pat.bar.data", 0)
			w1 := th.Spawn("producer", func(t *sched.Thread) {
				data.Store(t, 9)
				b.Await(t)
			})
			w2 := th.Spawn("consumer", func(t *sched.Thread) {
				if env.FixBugs {
					b.Await(t) // the required barrier
				}
				v := data.Load(t)
				t.Check(v == 9, "pat-barrier", "read before publish: %d", v)
				if !env.FixBugs {
					b.Await(t) // arrives late, keeping the barrier balanced
				}
			})
			th.Join(w1)
			th.Join(w2)
		},
	}
}
