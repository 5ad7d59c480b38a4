package ssync

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// run executes root under a seeded 4-processor schedule with heavy
// preemption — the adversarial environment for sync primitives.
func run(seed int64, root func(*sched.Thread)) *sched.Result {
	return sched.Run(root, sched.Config{Strategy: sched.NewRandomMP(4, 0.2, seed)})
}

func TestIDStable(t *testing.T) {
	if ID("a") != ID("a") {
		t.Fatal("ID not deterministic")
	}
	if ID("a") == ID("b") {
		t.Fatal("distinct names collided")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		res := run(seed, func(th *sched.Thread) {
			m := NewMutex("m")
			inside := 0
			var ts []*sched.Thread
			for i := 0; i < 4; i++ {
				ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
					for j := 0; j < 5; j++ {
						m.Lock(ct)
						inside++
						ct.Check(inside == 1, "mutex-broken", "two threads in section")
						ct.Yield()
						inside--
						m.Unlock(ct)
					}
				}))
			}
			for _, h := range ts {
				th.Join(h)
			}
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestMutexHeldBy(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		m := NewMutex("m")
		m.Lock(th)
		if m.HeldBy() != th.ID() {
			th.Fail("x", "HeldBy wrong")
		}
		m.Unlock(th)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestMutexUnlockMisuse(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		m := NewMutex("m")
		m.Unlock(th)
	})
	if res.Failure == nil || res.Failure.BugID != "ssync-misuse" {
		t.Fatalf("failure = %v", res.Failure)
	}
}

func TestTryLock(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		m := NewMutex("m")
		if !m.TryLock(th) {
			th.Fail("x", "trylock on free mutex failed")
		}
		done := th.Spawn("c", func(ct *sched.Thread) {
			if m.TryLock(ct) {
				ct.Fail("x", "trylock on held mutex succeeded")
			}
		})
		th.Join(done)
		m.Unlock(th)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestRWMutexReadersShare(t *testing.T) {
	res := run(5, func(th *sched.Thread) {
		rw := NewRWMutex("rw")
		readersIn := 0
		maxReaders := 0
		gate := NewBarrier("gate", 3)
		var ts []*sched.Thread
		for i := 0; i < 3; i++ {
			ts = append(ts, th.Spawn("r", func(ct *sched.Thread) {
				rw.RLock(ct)
				readersIn++
				if readersIn > maxReaders {
					maxReaders = readersIn
				}
				gate.Await(ct) // force all three inside simultaneously
				readersIn--
				rw.RUnlock(ct)
			}))
		}
		for _, h := range ts {
			th.Join(h)
		}
		th.Check(maxReaders == 3, "rw", "readers did not share: max %d", maxReaders)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestRWMutexWriterExcludes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := run(seed, func(th *sched.Thread) {
			rw := NewRWMutex("rw")
			var state int // 0 idle, >0 readers, -1 writer
			var ts []*sched.Thread
			for i := 0; i < 2; i++ {
				ts = append(ts, th.Spawn("r", func(ct *sched.Thread) {
					for j := 0; j < 4; j++ {
						rw.RLock(ct)
						ct.Check(state >= 0, "rw-broken", "reader saw writer inside")
						state++
						ct.Yield()
						state--
						rw.RUnlock(ct)
					}
				}))
			}
			ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
				for j := 0; j < 4; j++ {
					rw.Lock(ct)
					ct.Check(state == 0, "rw-broken", "writer entered with state %d", state)
					state = -1
					ct.Yield()
					state = 0
					rw.Unlock(ct)
				}
			}))
			for _, h := range ts {
				th.Join(h)
			}
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestCondProducerConsumer(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := run(seed, func(th *sched.Thread) {
			m := NewMutex("buf.lock")
			notEmpty := NewCond("buf.notEmpty")
			notFull := NewCond("buf.notFull")
			var buf []int
			const capN, items = 2, 10

			prod := th.Spawn("producer", func(ct *sched.Thread) {
				for i := 0; i < items; i++ {
					m.Lock(ct)
					for len(buf) == capN {
						notFull.Wait(ct, m)
					}
					buf = append(buf, i)
					notEmpty.Signal(ct, m)
					m.Unlock(ct)
				}
			})
			var got []int
			cons := th.Spawn("consumer", func(ct *sched.Thread) {
				for i := 0; i < items; i++ {
					m.Lock(ct)
					for len(buf) == 0 {
						notEmpty.Wait(ct, m)
					}
					got = append(got, buf[0])
					buf = buf[1:]
					notFull.Signal(ct, m)
					m.Unlock(ct)
				}
			})
			th.Join(prod)
			th.Join(cons)
			th.Check(len(got) == items, "pc", "consumed %d items", len(got))
			for i, v := range got {
				th.Check(v == i, "pc", "out of order: got[%d]=%d", i, v)
			}
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestCondWaitRequiresMutex(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		m := NewMutex("m")
		c := NewCond("c")
		c.Wait(th, m) // not holding m
	})
	if res.Failure == nil || res.Failure.BugID != "ssync-misuse" {
		t.Fatalf("failure = %v", res.Failure)
	}
}

func TestLostSignalDeadlocks(t *testing.T) {
	// Consumer checks the flag non-atomically with the wait: if the
	// producer signals first, the wakeup is lost and the run hangs.
	// Force that schedule directly.
	res := sched.Run(func(th *sched.Thread) {
		m := NewMutex("m")
		c := NewCond("c")
		// Signal first, with nobody waiting.
		m.Lock(th)
		c.Signal(th, m)
		m.Unlock(th)
		w := th.Spawn("waiter", func(ct *sched.Thread) {
			m.Lock(ct)
			c.Wait(ct, m) // sleeps forever
			m.Unlock(ct)
		})
		th.Join(w)
	}, sched.Config{Strategy: sched.Lowest{}})
	if res.Failure == nil || res.Failure.Reason != sched.ReasonDeadlock {
		t.Fatalf("failure = %v, want deadlock", res.Failure)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	res := run(7, func(th *sched.Thread) {
		m := NewMutex("m")
		c := NewCond("c")
		ready := false
		wg := NewWaitGroup("started")
		wg.Add(th, 3)
		var ts []*sched.Thread
		for i := 0; i < 3; i++ {
			ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
				m.Lock(ct)
				wg.Done(ct)
				for !ready {
					c.Wait(ct, m)
				}
				m.Unlock(ct)
			}))
		}
		wg.Wait(th) // all three have at least reached the lock
		m.Lock(th)
		ready = true
		c.Broadcast(th, m)
		m.Unlock(th)
		for _, h := range ts {
			th.Join(h)
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := run(seed, func(th *sched.Thread) {
			sem := NewSemaphore("pool", 2)
			inside := 0
			var ts []*sched.Thread
			for i := 0; i < 5; i++ {
				ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
					sem.Acquire(ct)
					inside++
					ct.Check(inside <= 2, "sem-broken", "%d threads inside", inside)
					ct.Yield()
					inside--
					sem.Release(ct)
				}))
			}
			for _, h := range ts {
				th.Join(h)
			}
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := run(seed, func(th *sched.Thread) {
			const parties, phases = 3, 4
			b := NewBarrier("b", parties)
			counts := make([]int, phases)
			var ts []*sched.Thread
			for i := 0; i < parties; i++ {
				ts = append(ts, th.Spawn("p", func(ct *sched.Thread) {
					for ph := 0; ph < phases; ph++ {
						counts[ph]++
						b.Await(ct)
						// After the barrier, every party must have
						// contributed to this phase.
						ct.Check(counts[ph] == parties, "barrier-broken",
							"phase %d count %d", ph, counts[ph])
					}
				}))
			}
			for _, h := range ts {
				th.Join(h)
			}
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestWaitGroupWaitsForAll(t *testing.T) {
	res := run(3, func(th *sched.Thread) {
		wg := NewWaitGroup("wg")
		done := 0
		wg.Add(th, 4)
		for i := 0; i < 4; i++ {
			th.Spawn("w", func(ct *sched.Thread) {
				ct.Yield()
				done++
				wg.Done(ct)
			})
		}
		wg.Wait(th)
		th.Check(done == 4, "wg", "wait returned with %d done", done)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res := run(seed, func(th *sched.Thread) {
			o := NewOnce("init")
			calls := 0
			initialized := false
			var ts []*sched.Thread
			for i := 0; i < 4; i++ {
				ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
					o.Do(ct, func() {
						calls++
						ct.Yield() // make the init window wide
						initialized = true
					})
					ct.Check(initialized, "once-broken", "Do returned before init completed")
				}))
			}
			for _, h := range ts {
				th.Join(h)
			}
			th.Check(calls == 1, "once-broken", "init ran %d times", calls)
		})
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", seed, res.Failure)
		}
	}
}

func TestLockInversionDeadlockDetected(t *testing.T) {
	// Force the classic AB/BA inversion deterministically.
	res := sched.Run(func(th *sched.Thread) {
		a := NewMutex("A")
		b := NewMutex("B")
		step := 0
		t1 := th.Spawn("t1", func(ct *sched.Thread) {
			a.Lock(ct)
			step++
			ct.Point(&sched.Op{Kind: trace.KindYield, Enabled: func() bool { return step == 2 }})
			b.Lock(ct)
		})
		t2 := th.Spawn("t2", func(ct *sched.Thread) {
			ct.Point(&sched.Op{Kind: trace.KindYield, Enabled: func() bool { return step == 1 }})
			b.Lock(ct)
			step++
			a.Lock(ct)
		})
		th.Join(t1)
		th.Join(t2)
	}, sched.Config{Strategy: sched.Lowest{}})
	if res.Failure == nil || res.Failure.Reason != sched.ReasonDeadlock {
		t.Fatalf("failure = %v, want deadlock", res.Failure)
	}
	if len(res.Failure.Stuck) < 2 {
		t.Fatalf("stuck = %+v, want both workers", res.Failure.Stuck)
	}
	// Each worker waits on the lock the other holds, and the report
	// names that holder.
	for _, want := range []string{
		fmt.Sprintf("lock A (lock obj=%#x) held by t1(t1)", ID("A")),
		fmt.Sprintf("lock B (lock obj=%#x) held by t2(t2)", ID("B")),
	} {
		if !strings.Contains(res.Failure.Msg, want) {
			t.Fatalf("report lacks %q:\n%s", want, res.Failure.Msg)
		}
	}
}

// TestRWMutexWriterDeadlockNamesHolder: a write waiter blocked behind
// another writer is reported with that writer's id and name.
func TestRWMutexWriterDeadlockNamesHolder(t *testing.T) {
	res := sched.Run(func(th *sched.Thread) {
		m := NewRWMutex("rw")
		m.Lock(th)
		w := th.Spawn("w", func(ct *sched.Thread) { m.Lock(ct) })
		th.Join(w)
	}, sched.Config{Strategy: sched.Lowest{}})
	if res.Failure == nil || res.Failure.Reason != sched.ReasonDeadlock {
		t.Fatalf("failure = %v, want deadlock", res.Failure)
	}
	if want := fmt.Sprintf("wlock rw (lock obj=%#x) held by t0(main)", ID("rw")); !strings.Contains(res.Failure.Msg, want) {
		t.Fatalf("report lacks %q:\n%s", want, res.Failure.Msg)
	}
}

func TestPrimitiveIdentities(t *testing.T) {
	m := NewMutex("m")
	if m.Name() != "m" || m.Obj() != ID("m") {
		t.Fatal("mutex identity wrong")
	}
	if NewRWMutex("rw").Obj() != ID("rw") {
		t.Fatal("rwmutex identity wrong")
	}
	if NewCond("c").Obj() != ID("c") {
		t.Fatal("cond identity wrong")
	}
	if NewSemaphore("s", 1).Obj() != ID("s") {
		t.Fatal("semaphore identity wrong")
	}
	if NewBarrier("b", 2).Obj() != ID("b") {
		t.Fatal("barrier identity wrong")
	}
	if NewWaitGroup("w").Obj() != ID("w") {
		t.Fatal("waitgroup identity wrong")
	}
	if NewOnce("o").Obj() != ID("o") {
		t.Fatal("once identity wrong")
	}
}

func TestBarrierRejectsZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-party barrier accepted")
		}
	}()
	NewBarrier("bad", 0)
}

func TestRWMutexMisuse(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		rw := NewRWMutex("rw")
		rw.RUnlock(th)
	})
	if res.Failure == nil || res.Failure.BugID != "ssync-misuse" {
		t.Fatalf("failure = %v", res.Failure)
	}
	res = run(1, func(th *sched.Thread) {
		rw := NewRWMutex("rw")
		rw.Unlock(th)
	})
	if res.Failure == nil || res.Failure.BugID != "ssync-misuse" {
		t.Fatalf("failure = %v", res.Failure)
	}
}

func TestWaitGroupNegative(t *testing.T) {
	res := run(1, func(th *sched.Thread) {
		wg := NewWaitGroup("wg")
		wg.Done(th)
	})
	if res.Failure == nil || res.Failure.BugID != "ssync-misuse" {
		t.Fatalf("failure = %v", res.Failure)
	}
}
