// Package sched implements the deterministic multiprocessor execution
// substrate that stands in for PRES's control over real OS threads.
//
// Application threads are coroutines (iter.Pull) driven by the
// scheduler loop, which runs on Run's caller goroutine. Every
// instrumented operation (memory access, synchronization op, system
// call, function entry, basic-block boundary) is a scheduling point at
// which the thread yields its pending operation back to the loop, and
// the loop picks which parked thread proceeds next and resumes it. The
// total grant order is the execution's global order; strategies
// (package-level RandomMP for production runs, replay-directed
// strategies in internal/core) choose the order, and observers (sketch
// recorders, race detectors, full-order capture) watch it.
//
// A resume is a direct coroutine switch: the loop and exactly one
// thread take turns on the CPU, and the runtime's goroutine scheduler
// never runs in between (race-instrumented builds swap in a goroutine
// handoff with the same semantics, see coro_race.go). Because exactly one of them executes at any
// moment, and all simulation state is mutated either inside operation
// effects (run by the loop) or between two scheduling points of the
// running thread, the host program is free of data races without any
// host-level locking.
//
// # Grants and batches
//
// Every committed step is one Pick over a freshly built candidate view
// (see INTERNALS.md, "The grant protocol"). What the scheduler amortizes
// is the thread handoff: a thread can pre-declare a straight-line batch
// of ops (Thread.PointBatch) that commits under one resume instead of
// one per op, each op still a step of its own that the strategy picks
// (or withholds) like any other.
package sched

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Observer watches the committed event stream. OnEvent returns the extra
// logical cost the observation imposes on the production run (e.g., the
// cost of appending to a sketch log); pure observers return 0.
//
// The scheduler reuses one internal event value across steps and passes
// it by value, so observers never see per-step garbage; an observer that
// retains events must copy them (they are plain values, so assignment
// copies).
type Observer interface {
	OnEvent(ev trace.Event) (extraCost uint64)
}

// EpochObserver is an optional Observer extension for epoch-segmented
// recording (the always-on recorder's epoch ring, core.Options.EpochRing):
// the scheduler calls OnEpochSeal at every control transfer — the grant
// where a *different* thread than the last one runs, so consecutive
// same-thread grants form one epoch — plus once at end of execution.
// Control transfers are quiescent points: the outgoing thread's effects
// have committed and the incoming thread has not run, so the observer
// may cut its log into a sealed epoch and snapshot the world there. The
// return value is the modelled logical cost of the seal; it is added to
// Result.ExtraCost like OnEvent's.
type EpochObserver interface {
	Observer
	OnEpochSeal() (extraCost uint64)
}

// QuiescentObserver is an optional Observer extension for prefix
// snapshotting: OnQuiescent(step) fires at the top of every scheduling
// round — after every in-flight thread has parked and before the
// Strategy picks — with the number of events committed so far. At that
// instant no thread is executing user code and no thread sits between
// a syscall's decision and its effect, which is exactly the
// quiescent-point contract vsys.World.Snapshot requires; and because
// the tap precedes the pick, any state the Strategy mutates while
// choosing still describes the committed prefix, not the upcoming
// event. (A control-transfer tap would run one pick ahead of the
// commit stream — the pick that detects the transfer has already
// happened.) Every step is picked, so a tap precedes every committed
// event, batch ops included. The hook costs nothing when no registered
// observer implements it (the scan at construction leaves an empty
// slice), and must not mutate scheduling state: it is a read-only tap.
type QuiescentObserver interface {
	Observer
	OnQuiescent(step uint64)
}

// Candidate describes one enabled parked thread offered to a Strategy.
type Candidate struct {
	TID  trace.TID
	Kind trace.Kind
	Obj  uint64
	Arg  uint64
	// Cost is the pending op's logical duration; time-weighted
	// strategies use it to model how long the thread will occupy its
	// processor.
	Cost uint64
	// Run is the length of the thread's declared straight-line batch
	// counting the pending op (1 for a plain op). RandomMP keeps a
	// picked batch on its processor for this many steps.
	Run int
}

// PickView is the scheduler state a Strategy sees when choosing the next
// thread. Candidates are sorted by TID and all enabled.
//
// The scheduler reuses the view and its candidate buffer across steps;
// strategies must not retain either past the Pick call.
type PickView struct {
	Step       uint64
	Candidates []Candidate
}

// Has reports whether tid is among the candidates. Candidates are
// TID-sorted, so this is a binary search.
func (v *PickView) Has(tid trace.TID) bool {
	_, ok := v.Find(tid)
	return ok
}

// Find returns the candidate for tid, if present, by binary search over
// the TID-sorted candidate list.
func (v *PickView) Find(tid trace.TID) (Candidate, bool) {
	i := sort.Search(len(v.Candidates), func(i int) bool {
		return v.Candidates[i].TID >= tid
	})
	if i < len(v.Candidates) && v.Candidates[i].TID == tid {
		return v.Candidates[i], true
	}
	return Candidate{}, false
}

// Strategy decides the interleaving. Pick returns the thread to grant
// next; ok=false aborts the run with a divergence failure (used by the
// replayer when the recorded schedule can no longer be honored).
type Strategy interface {
	Pick(view *PickView) (tid trace.TID, ok bool)
}

// Config parameterizes one execution.
type Config struct {
	Strategy  Strategy   // required
	Observers []Observer // called in order for every committed event
	// Ctx, when non-nil, bounds the execution: the scheduler polls it
	// (non-blocking) at every pick point and fails the run with
	// ReasonCancelled once it is done, then unwinds every thread — the
	// cooperative-cancellation seam Record/Replay thread the public
	// context through. Cancellation lands at a pick, never mid-effect;
	// the pick may fall between two ops of a declared batch, which then
	// unwinds like any parked thread. Nil (the default) keeps the loop
	// select-free.
	Ctx context.Context
	// MaxSteps bounds the execution; exceeding it fails the run with
	// ReasonStepLimit. 0 means DefaultMaxSteps.
	MaxSteps uint64
	// Metrics, when non-nil, receives the substrate's counters:
	// sched_steps_total, sched_picks_total, sched_threads_total and
	// pres_sched_handoffs_total (see OBSERVABILITY.md). The instruments
	// are resolved once at Run, so the per-event cost is one atomic
	// add; nil (the default) keeps the hot path free of any measurement
	// cost.
	Metrics *obs.Registry
	// Inject, when non-nil, is the failure-injection hook consulted at
	// every vsys call and lock acquisition (see inject.go and
	// internal/scenario). Nil — the default — keeps the instrumented
	// layers on their unconditional fast path.
	Inject InjectFn
}

// DefaultMaxSteps bounds runs whose Config leaves MaxSteps zero.
const DefaultMaxSteps = 5_000_000

// Result summarizes one execution.
type Result struct {
	Failure      *Failure // nil if the program ran to completion
	Steps        uint64   // scheduling points committed
	BaseCost     uint64   // logical cost of the bare execution
	ExtraCost    uint64   // logical cost added by observers (recording)
	Threads      int      // threads created over the lifetime
	EventsByKind [trace.NumKinds]uint64
	// Handoffs counts the resumes that hand control back to a thread
	// after one of its ops committed (a thread's first resume, which
	// starts it, is not one). Every batch op but the last commits
	// without one, so Handoffs <= Steps; the gap is the amortization
	// PointBatch buys.
	Handoffs uint64
}

// Overhead returns ExtraCost/BaseCost — the modelled production-run
// recording overhead as a fraction (0.25 == 25% slowdown).
func (r *Result) Overhead() float64 {
	if r.BaseCost == 0 {
		return 0
	}
	return float64(r.ExtraCost) / float64(r.BaseCost)
}

type threadState uint8

const (
	stateParked  threadState = iota // at a point with a pending op
	stateRunning                    // between points (or starting up)
	stateAsleep                     // at a point with no pending op (cond wait)
	stateDone
)

// announcement is what a thread yields at a scheduling point.
type announcement struct {
	op  *Op
	run []*Op // declared batch (PointBatch); op == run[0] when set
}

// Scheduler coordinates one execution. Create with Run.
type Scheduler struct {
	cfg      Config
	threads  []*Thread // dense by TID; creation order == TID order
	nextTID  trace.TID
	runq     []*Thread // threads to resume before the next pick
	live     int
	step     uint64
	failure  *Failure
	res      Result
	sleepReq bool                // set by EffectCtx.Sleep during the current grant
	ctxDone  <-chan struct{}     // Config.Ctx's done channel, nil when unset
	epochObs []EpochObserver     // observers sealed at control transfers
	quiObs   []QuiescentObserver // observers tapped before every pick
	// lastGrant is the thread the previous pick round granted: the
	// owner of the currently open epoch. Sealed (for epochObs) when a
	// different thread is granted, and finally at end of execution.
	lastGrant *Thread

	// Reused per-step machinery. The view, candidate buffer, committed
	// event and effect context live for the whole execution; the loop
	// refills them in place so the steady state allocates nothing.
	view  PickView
	cands []Candidate
	ev    trace.Event
	ectx  EffectCtx

	// Pre-resolved metric instruments (nil when Config.Metrics is nil;
	// their methods are then single-nil-check no-ops).
	mSteps    *obs.Counter
	mPicks    *obs.Counter
	mThreads  *obs.Counter
	mHandoffs *obs.Counter
}

// Run executes root as thread 0 under cfg and returns the result. It
// blocks until every thread has exited (after a failure, remaining
// threads are unwound).
func Run(root func(*Thread), cfg Config) *Result {
	if cfg.Strategy == nil {
		panic("sched: Config.Strategy is required")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	s := &Scheduler{cfg: cfg}
	for _, o := range cfg.Observers {
		if eo, ok := o.(EpochObserver); ok {
			s.epochObs = append(s.epochObs, eo)
		}
		if qo, ok := o.(QuiescentObserver); ok {
			s.quiObs = append(s.quiObs, qo)
		}
	}
	s.ectx.s = s
	s.ectx.Ev = &s.ev
	if cfg.Metrics != nil {
		s.mSteps = cfg.Metrics.Counter("sched_steps_total")
		s.mPicks = cfg.Metrics.Counter("sched_picks_total")
		s.mThreads = cfg.Metrics.Counter("sched_threads_total")
		s.mHandoffs = cfg.Metrics.Counter("pres_sched_handoffs_total")
	}
	if cfg.Ctx != nil {
		s.ctxDone = cfg.Ctx.Done()
	}
	s.spawn(s.addThread("main", trace.NoTID), root)
	s.loop()
	// Final epoch: the open epoch ends with the execution (shutdown and
	// failure paths included, so the sealed epochs always cover the
	// whole committed stream).
	if s.lastGrant != nil {
		for _, o := range s.epochObs {
			s.res.ExtraCost += o.OnEpochSeal()
		}
	}
	// A copy, not &s.res: a held *Result must not keep the scheduler,
	// its threads and through them the program's heap reachable.
	res := s.res
	res.Failure = s.failure
	res.Steps = s.step
	return &res
}

func (s *Scheduler) addThread(name string, parent trace.TID) *Thread {
	t := &Thread{
		id:     s.nextTID,
		name:   name,
		parent: parent,
		s:      s,
		state:  stateRunning,
	}
	t.yieldOp.Kind = trace.KindYield
	s.nextTID++
	s.threads = append(s.threads, t)
	s.live++
	s.res.Threads++
	s.mThreads.Inc()
	return t
}

// runThread is the coroutine body of one application thread. The
// failure it ends with, if any, fails the run unless an earlier one did;
// a thread unwound by shutdown did not fail.
func (s *Scheduler) runThread(t *Thread, fn func(*Thread)) {
	defer func() {
		r := recover()
		if r == nil || s.failure != nil {
			return
		}
		f, ok := r.(*Failure)
		if !ok {
			// A non-Failure panic is an application crash: treat it as
			// a manifested failure so the harness can observe it.
			f = &Failure{
				Reason: ReasonCrash,
				TID:    t.id,
				Step:   s.step,
				Msg:    fmt.Sprint(r),
			}
		}
		if f.Reason != reasonStopped {
			s.failure = f
		}
	}()
	t.Point(&Op{Kind: trace.KindThreadStart, Obj: uint64(uint32(t.parent))})
	fn(t)
	t.Point(&Op{Kind: trace.KindThreadExit})
}

// spawn makes fn the body of t's coroutine and queues t, so the loop
// starts it before the next pick.
func (s *Scheduler) spawn(t *Thread, fn func(*Thread)) {
	t.next, t.stop = pull(func(yield func(announcement) bool) {
		t.yield = yield
		s.runThread(t, fn)
	})
	s.runq = append(s.runq, t)
}

// resume runs t until it parks at its next point or exits.
func (s *Scheduler) resume(t *Thread) {
	a, ok := t.next()
	if !ok {
		s.handleExit(t)
		return
	}
	t.pending = a.op
	t.batch = a.run
	t.batchPos = 1
	t.state = stateParked
}

func (s *Scheduler) loop() {
	for {
		// Run every granted or spawned thread to its next point, so
		// that no thread is executing user code at the pick.
		for len(s.runq) > 0 {
			t := s.runq[len(s.runq)-1]
			s.runq = s.runq[:len(s.runq)-1]
			s.resume(t)
		}
		if s.failure != nil || s.live == 0 {
			s.shutdown()
			return
		}
		if s.ctxDone != nil {
			// Non-blocking poll: cancellation lands at the next pick
			// point, never mid-effect, so the unwind sees a consistent
			// simulation state.
			select {
			case <-s.ctxDone:
				s.failure = &Failure{Reason: ReasonCancelled, Step: s.step,
					Msg: "execution cancelled: " + s.cfg.Ctx.Err().Error()}
				s.shutdown()
				return
			default:
			}
		}
		if s.step >= s.cfg.MaxSteps {
			s.failure = &Failure{Reason: ReasonStepLimit, Step: s.step,
				Msg: fmt.Sprintf("execution exceeded %d scheduling points", s.cfg.MaxSteps)}
			s.shutdown()
			return
		}
		// Quiescent tap: every thread is parked and the strategy has not
		// yet picked, so s.step committed events fully describe the state
		// an observer captures here (see QuiescentObserver).
		for _, o := range s.quiObs {
			o.OnQuiescent(s.step)
		}
		view := s.buildView()
		if len(view.Candidates) == 0 {
			s.failure = s.deadlockFailure()
			s.shutdown()
			return
		}
		tid, ok := s.cfg.Strategy.Pick(view)
		s.mPicks.Inc()
		if !ok {
			s.failure = &Failure{Reason: ReasonDiverged, Step: s.step,
				Msg: "strategy aborted: recorded schedule can no longer be honored"}
			s.shutdown()
			return
		}
		if int(tid) < 0 || int(tid) >= len(s.threads) {
			s.failure = &Failure{Reason: ReasonDiverged, Step: s.step, TID: tid,
				Msg: fmt.Sprintf("strategy picked unknown thread %d", tid)}
			s.shutdown()
			return
		}
		t := s.threads[tid]
		if t.state != stateParked || !opEnabled(t.pending) {
			s.failure = &Failure{Reason: ReasonDiverged, Step: s.step, TID: tid,
				Msg: fmt.Sprintf("strategy picked non-runnable thread %d", tid)}
			s.shutdown()
			return
		}
		// Control transfer: the open epoch may end here, before the
		// incoming thread commits anything. Same-thread re-grants keep
		// the epoch open (at most one seal per context switch, not per
		// grant).
		if s.lastGrant != nil && s.lastGrant != t {
			for _, o := range s.epochObs {
				s.res.ExtraCost += o.OnEpochSeal()
			}
		}
		s.lastGrant = t
		s.grant(t)
	}
}

func opEnabled(op *Op) bool { return op != nil && (op.Enabled == nil || op.Enabled()) }

// buildView refills the reused view/candidate buffer with every parked
// thread whose pending op is enabled, in TID order.
func (s *Scheduler) buildView() *PickView {
	s.cands = s.cands[:0]
	for _, t := range s.threads {
		if t.state == stateParked && opEnabled(t.pending) {
			s.cands = append(s.cands, Candidate{
				TID:  t.id,
				Kind: t.pending.Kind,
				Obj:  t.pending.Obj,
				Arg:  t.pending.Arg,
				Cost: t.pending.cost(),
				Run:  t.remainingRun(),
			})
		}
	}
	s.view.Step = s.step
	s.view.Candidates = s.cands
	return &s.view
}

// commit commits t's pending op as one step, filling the reused event
// (which the effect may amend) and fanning it out to observers.
func (s *Scheduler) commit(t *Thread) {
	op := t.pending
	t.pending = nil
	t.state = stateRunning
	s.step++
	s.mSteps.Inc()
	t.tcount++
	s.ev = trace.Event{
		Seq:    s.step,
		TID:    t.id,
		TCount: t.tcount,
		Kind:   op.Kind,
		Obj:    op.Obj,
		Arg:    op.Arg,
	}
	s.res.BaseCost += op.cost()
	s.sleepReq = false
	if op.Effect != nil {
		s.ectx.t = t
		op.Effect(&s.ectx)
	}
	if int(s.ev.Kind) < trace.NumKinds {
		s.res.EventsByKind[s.ev.Kind]++
	}
	for _, o := range s.cfg.Observers {
		s.res.ExtraCost += o.OnEvent(s.ev)
	}
}

// advanceBatch moves t to the next op of its declared batch, if any.
func advanceBatch(t *Thread) bool {
	if t.batch != nil && t.batchPos < len(t.batch) {
		t.pending = t.batch[t.batchPos]
		t.batchPos++
		t.state = stateParked
		return true
	}
	t.batch = nil
	return false
}

// grant commits t's pending op as one step, then either stages the
// next op of t's declared batch as pending — no handoff; it waits,
// parked, for the next pick — or queues the thread to be resumed.
func (s *Scheduler) grant(t *Thread) {
	s.commit(t)
	if s.sleepReq {
		if t.batch != nil && t.batchPos < len(t.batch) {
			panic("sched: Sleep from a non-final op of a PointBatch")
		}
		t.batch = nil
		t.state = stateAsleep
		return // thread stays suspended in Point; not resumed
	}
	if advanceBatch(t) {
		return
	}
	s.res.Handoffs++
	s.mHandoffs.Inc()
	s.runq = append(s.runq, t)
}

// handleExit retires an exited thread. It drops the thread's coroutine
// handles, which reach the thread's closure and through it the
// program's heap.
func (s *Scheduler) handleExit(t *Thread) {
	t.state = stateDone
	t.yield, t.next, t.stop = nil, nil, nil
	s.live--
}

// shutdown unwinds every remaining thread: stop makes a parked or
// asleep thread's pending yield return false, so it panics out of
// Point and its coroutine returns; a spawned thread that never ran
// returns without starting. No goroutine outlives the run.
func (s *Scheduler) shutdown() {
	for _, t := range s.threads {
		if t.state != stateDone {
			t.stop()
			s.handleExit(t)
		}
	}
}

func (s *Scheduler) deadlockFailure() *Failure {
	f := &Failure{Reason: ReasonDeadlock, Step: s.step}
	var b strings.Builder
	b.WriteString("deadlock: no runnable thread;")
	waitsFor := make(map[trace.TID]trace.TID)
	for _, t := range s.threads {
		switch t.state {
		case stateParked:
			desc := t.pending.describe()
			if t.pending.BlockedOn != nil {
				if h := t.pending.BlockedOn(); h != trace.NoTID {
					waitsFor[t.id] = h
					desc += fmt.Sprintf(" held by t%d(%s)", h, s.threads[h].name)
				}
			}
			f.Stuck = append(f.Stuck, Stuck{TID: t.id, Name: t.name, What: desc})
			fmt.Fprintf(&b, " t%d(%s) blocked at %s;", t.id, t.name, desc)
		case stateAsleep:
			f.Stuck = append(f.Stuck, Stuck{TID: t.id, Name: t.name, What: "asleep (condition wait)"})
			fmt.Fprintf(&b, " t%d(%s) asleep in wait;", t.id, t.name)
		}
	}
	f.Cycle = findCycle(waitsFor)
	if len(f.Cycle) > 0 {
		fmt.Fprintf(&b, " waits-for cycle: %v;", f.Cycle)
	}
	f.Msg = b.String()
	return f
}

// findCycle extracts one cycle from the waits-for graph (each node has
// out-degree at most one, so chasing pointers with a visited set finds
// any cycle in linear time). Nodes are visited in ascending id order for
// a deterministic result.
func findCycle(waitsFor map[trace.TID]trace.TID) []trace.TID {
	starts := make([]trace.TID, 0, len(waitsFor))
	for tid := range waitsFor {
		starts = append(starts, tid)
	}
	slices.Sort(starts)
	done := make(map[trace.TID]bool)
	for _, start := range starts {
		if done[start] {
			continue
		}
		pos := map[trace.TID]int{}
		var path []trace.TID
		cur := start
		for {
			if i, onPath := pos[cur]; onPath {
				return path[i:]
			}
			if done[cur] {
				break
			}
			pos[cur] = len(path)
			path = append(path, cur)
			next, ok := waitsFor[cur]
			if !ok {
				break
			}
			cur = next
		}
		for _, tid := range path {
			done[tid] = true
		}
	}
	return nil
}
