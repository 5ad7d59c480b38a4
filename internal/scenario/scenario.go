// Package scenario stresses the PRES pipeline beyond the corpus's happy
// paths, from two directions.
//
// The first half is a declarative failure-injection matrix: a small
// table of failure classes — overloaded I/O, failing reads and writes,
// shed requests, panic paths, a worker wedging mid-protocol — each
// realized as a deterministic sched.InjectFn factory that the vsys
// syscall layer and the ssync lock acquisitions consult. Every
// (app, class) cell of the matrix declares the outcome the pipeline
// must be able to produce and reproduce (bug manifests, clean run,
// crash, deadlock detected); RunCell drives one cell, searching
// production seeds for the declared outcome and then replaying the
// recording to reproduction. Injection hooks are factories because
// injectors keep per-thread counters: recording, every replay attempt
// and order reproduction each get a fresh hook, so injection decisions
// are a pure function of per-thread history and repeat identically
// under any interleaving the replayer tries.
//
// The second half is a property-based program generator: Generate
// derives a random-but-structured appkit program from a seed — a bug
// template the corpus lacks (lost wakeup under load, livelock, ABA,
// double-checked locking) woven together with noise threads doing
// unrelated shared-memory, lock and syscall work. Each generated
// program carries its ground truth: the buggy variant must manifest
// its template bug under some production seed and replay to
// reproduction, the patched variant must never manifest it. Verify
// runs that pipeline for one seed; cmd/presgen sweeps and minimizes.
package scenario

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Every production run and replay here uses world seed 1 and this step
// bound. Scenario programs are small, so production runs preempt at the
// patterns sweep's loaded 0.05 rather than the corpus default, and a
// generated program's patched variant is held clean over fixedSeeds
// production seeds.
const (
	worldSeed  int64   = 1
	maxSteps   uint64  = 300_000
	preempt    float64 = 0.05
	fixedSeeds         = 60
)

// Config parameterizes matrix cells and generator verification.
type Config struct {
	// Ctx, when non-nil, bounds every execution. Nil means no bound.
	Ctx context.Context
	// Processors models the production machine. Default 4.
	Processors int
	// SeedBudget bounds the production-seed search per cell or per
	// generated buggy variant. Default 400.
	SeedBudget int
	// MaxAttempts is the replay budget. Default 1000.
	MaxAttempts int
	// Metrics, when non-nil, receives the pres_scenario_* counters.
	Metrics *obs.Registry
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func (c Config) processors() int {
	if c.Processors <= 0 {
		return 4
	}
	return c.Processors
}

func (c Config) seedBudget() int {
	if c.SeedBudget <= 0 {
		return 400
	}
	return c.SeedBudget
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 1000
	}
	return c.MaxAttempts
}

// Class is one declarative failure class: a named, deterministic
// injector. New returns a fresh hook per execution (the shape
// core.Options.Inject wants); nil New is the uninjected control.
type Class struct {
	Name string
	Desc string
	New  func() sched.InjectFn
}

// Classes returns the stock failure classes, in matrix column order.
func Classes() []Class {
	return []Class{
		{
			Name: "baseline",
			Desc: "no injection: the control column, bugs manifest as in E1",
			New:  nil,
		},
		{
			Name: "slow-io",
			Desc: "every file/socket syscall runs 8x slower (loaded storage)",
			New:  slowIO(8 * trace.CostUnit),
		},
		{
			Name: "io-error",
			Desc: "every 5th read/write per thread fails (flaky storage)",
			New:  ioErrorEvery(5),
		},
		{
			Name: "overload",
			Desc: "every 3rd send per thread is shed and all syscalls slow (saturation)",
			New:  overload(3, 4*trace.CostUnit),
		},
		{
			Name: "crash",
			Desc: "each thread's 12th syscall panics (fault path)",
			New:  panicOnNth(12),
		},
		{
			Name: "lock-wedge",
			Desc: "each thread's 2nd lock acquisition wedges forever (partial shutdown)",
			New:  wedgeNthLock(2),
		},
	}
}

// ClassByName returns the named stock class.
func ClassByName(name string) (Class, bool) {
	for _, c := range Classes() {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// slowIO charges extra cost on every syscall. Stateless, but still a
// factory for uniformity with the counting injectors.
func slowIO(extra uint64) func() sched.InjectFn {
	return func() sched.InjectFn {
		return func(tid trace.TID, p sched.InjectPoint) sched.InjectAction {
			if p.Kind == sched.InjectSyscall {
				return sched.InjectAction{ExtraCost: extra}
			}
			return sched.InjectAction{}
		}
	}
}

// ioErrorEvery fails each thread's every nth read or write. The
// counter is per thread, so the decision sequence a thread sees is a
// pure function of its own syscall history — identical across every
// interleaving the replayer tries.
func ioErrorEvery(n uint64) func() sched.InjectFn {
	return func() sched.InjectFn {
		counts := map[trace.TID]uint64{}
		return func(tid trace.TID, p sched.InjectPoint) sched.InjectAction {
			if p.Kind != sched.InjectSyscall {
				return sched.InjectAction{}
			}
			switch p.Obj {
			case vsys.CallRead, vsys.CallWrite:
			default:
				return sched.InjectAction{}
			}
			counts[tid]++
			if counts[tid]%n == 0 {
				return sched.InjectAction{Outcome: sched.InjectFailOp}
			}
			return sched.InjectAction{}
		}
	}
}

// overload sheds each thread's every nth queue send and slows every
// syscall — the saturated-server class.
func overload(n, extra uint64) func() sched.InjectFn {
	return func() sched.InjectFn {
		sends := map[trace.TID]uint64{}
		return func(tid trace.TID, p sched.InjectPoint) sched.InjectAction {
			if p.Kind != sched.InjectSyscall {
				return sched.InjectAction{}
			}
			act := sched.InjectAction{ExtraCost: extra}
			if p.Obj == vsys.CallSend {
				sends[tid]++
				if sends[tid]%n == 0 {
					act.Outcome = sched.InjectFailOp
				}
			}
			return act
		}
	}
}

// panicOnNth panics on each thread's nth syscall — the modelled
// fault-handling path (assertion in a signal handler, abort on
// timeout). The first thread to get there crashes the run.
func panicOnNth(n uint64) func() sched.InjectFn {
	return func() sched.InjectFn {
		counts := map[trace.TID]uint64{}
		return func(tid trace.TID, p sched.InjectPoint) sched.InjectAction {
			if p.Kind != sched.InjectSyscall {
				return sched.InjectAction{}
			}
			counts[tid]++
			if counts[tid] == n {
				return sched.InjectAction{Outcome: sched.InjectPanic}
			}
			return sched.InjectAction{}
		}
	}
}

// wedgeNthLock blocks each thread forever at its nth lock acquisition
// — a worker stalled mid-protocol (the partial-shutdown class). The
// wedged thread never holds the lock; everyone who later joins it, or
// the protocol it abandoned, deadlocks, and the detector reports the
// stuck set.
func wedgeNthLock(n uint64) func() sched.InjectFn {
	return func() sched.InjectFn {
		counts := map[trace.TID]uint64{}
		return func(tid trace.TID, p sched.InjectPoint) sched.InjectAction {
			if p.Kind != sched.InjectLock {
				return sched.InjectAction{}
			}
			counts[tid]++
			if counts[tid] == n {
				return sched.InjectAction{Outcome: sched.InjectWedge}
			}
			return sched.InjectAction{}
		}
	}
}
