package sched

import "repro/internal/trace"

// Failure injection is the scheduler-level seam the scenario matrix
// (internal/scenario) drives: an execution may carry an InjectFn hook
// (Config.Inject, surfaced to programs as appkit.Env.Inject) that the
// instrumented layers consult at their fault sites — every vsys call
// and every blocking lock acquisition. The hook returns an
// InjectAction describing what the environment does to that operation:
// nothing, extra latency, an operation failure, a panic, or a wedge.
//
// Injectors must be deterministic functions of the per-thread operation
// history (e.g. "thread t's nth read fails"): the same hook is
// installed for the production recording and for every replay attempt,
// so a decision that depended on cross-thread ordering could diverge
// between recording and replay. Stock deterministic injectors live in
// internal/scenario.

// InjectKind classifies an injection point.
type InjectKind uint8

const (
	// InjectSyscall: a vsys call; Obj is the vsys call code.
	InjectSyscall InjectKind = iota + 1
	// InjectLock: a blocking lock/semaphore acquisition; Obj is the
	// primitive's stable object id.
	InjectLock
)

// InjectPoint identifies one potential fault site.
type InjectPoint struct {
	Kind InjectKind
	Obj  uint64
}

// InjectOutcome is what the injected environment does to the operation.
type InjectOutcome uint8

const (
	// InjectNone: the operation proceeds normally (extra cost may still
	// apply).
	InjectNone InjectOutcome = iota
	// InjectFailOp: the operation takes its failure path — a read
	// returns no bytes, a send is dropped (overload shedding), a recv
	// reports the connection gone. Layers without a failure path treat
	// it as InjectNone.
	InjectFailOp
	// InjectPanic: the thread panics right after the operation — the
	// timeout/panic handler path; the run ends with ReasonCrash.
	InjectPanic
	// InjectWedge: the operation never becomes enabled — a wedged
	// component (hung backend, stuck shutdown); threads that depend on
	// it pile up behind and the run ends in deadlock detection.
	InjectWedge
)

// InjectAction is the hook's verdict for one operation.
type InjectAction struct {
	// ExtraCost is added to the operation's modelled cost (slow-I/O
	// classes), in trace.CostUnit-scaled units.
	ExtraCost uint64
	Outcome   InjectOutcome
}

// InjectFn decides the environment's behavior at one fault site. It is
// called by the performing thread before the operation is yielded to
// the scheduler, so it may keep per-thread deterministic state.
type InjectFn func(tid trace.TID, p InjectPoint) InjectAction

// Inject consults the execution's failure-injection hook for a fault
// site, returning the zero action when no hook is installed. The nil
// path is a single comparison and allocates nothing, keeping the
// record path's cost identical to a build without injection.
func (t *Thread) Inject(p InjectPoint) InjectAction {
	if t.s.cfg.Inject == nil {
		return InjectAction{}
	}
	return t.s.cfg.Inject(t.id, p)
}
