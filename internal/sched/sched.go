// Package sched implements the deterministic multiprocessor execution
// substrate that stands in for PRES's control over real OS threads.
//
// Application threads are goroutines, but they never run concurrently:
// every instrumented operation (memory access, synchronization op,
// system call, function entry, basic-block boundary) is a scheduling
// point at which the thread parks with a pending operation, and a
// central scheduler picks which parked thread proceeds next. The total
// grant order is the execution's global order; strategies (package-level
// RandomMP for production runs, replay-directed strategies in
// internal/core) choose the order, and observers (sketch recorders, race
// detectors, full-order capture) watch it.
//
// Because exactly one application thread executes at any moment and all
// simulation state is mutated either inside operation effects (run on
// the scheduler goroutine) or between two scheduling points of the
// running thread, the host program is free of data races without any
// host-level locking.
//
// # Run grants
//
// Executions are dominated by long same-thread runs, so the scheduler
// amortizes its bookkeeping over them (see INTERNALS.md, "The grant
// protocol"). A strategy that also implements RunGranter may grant the
// picked thread a run of up to N steps under a single Pick; threads can
// pre-declare straight-line batches of ops (Thread.PointBatch) that
// commit under one channel handoff instead of one round-trip per op; and
// when exactly one thread is runnable the loop re-grants it without
// rebuilding the candidate view. Config.SingleStep disables all of it
// and restores the one-Pick-one-step reference behavior; the two modes
// commit byte-identical traces (asserted by TestPropFastPathEquivalence).
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

// RunObserver is an optional Observer extension for run batching: when
// the scheduler grants a multi-step run, it announces the run's length
// once, before the run's first commit, so an observer that appends per
// event (a sketch recorder, an order capture) can reserve capacity for
// the whole run instead of growing inside the commit loop. The length
// is an upper bound — a run may end early — and budget-1 grants
// announce nothing, so implementing this interface must not change
// what the observer records, only how it allocates.
type RunObserver interface {
	Observer
	OnRunStart(n int)
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
// happened.) Multi-event runs granted to one thread commit without
// returning to the round top, so taps land between runs, not between
// every pair of events. The hook costs nothing when no registered
// observer implements it (the scan at construction leaves an empty
// slice), and must not mutate scheduling state: it is a read-only
// tap, fired identically in single-step and fast-path modes.
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
	// counting the pending op (1 for a plain op). RunGranter strategies
	// size their run budgets from it.
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

// RunGranter is the optional fast-path seam a Strategy may implement to
// grant the picked thread a run of several steps under one Pick.
//
// Right after Pick returns tid, the scheduler calls RunBudget(view, tid);
// a budget of N >= 2 lets the thread commit up to N consecutive steps
// before the next Pick. Before each extra step (the 2nd..Nth) is
// committed, ObserveStep(tid, cost) reports the op about to run so the
// strategy can keep its accounting (virtual time, replay cursor) exactly
// as if it had Picked the step itself; ObserveStep cannot veto — the run
// ends early only for scheduler-level reasons (the op is disabled, the
// thread slept or exited, the step limit was hit).
//
// Strategies that do not implement RunGranter get budget 1 everywhere —
// the exact single-step behavior. Replay-directed strategies deliberately
// stay at budget 1 near flip points so search precision is untouched
// (the budget-1 invariant; see INTERNALS.md).
type RunGranter interface {
	RunBudget(view *PickView, tid trace.TID) int
	ObserveStep(tid trace.TID, cost uint64)
}

// Config parameterizes one execution.
type Config struct {
	Strategy  Strategy   // required
	Observers []Observer // called in order for every committed event
	// Ctx, when non-nil, bounds the execution: the scheduler polls it
	// (non-blocking) at every pick point and fails the run with
	// ReasonCancelled once it is done, then unwinds every thread — the
	// cooperative-cancellation seam Record/Replay thread the public
	// context through. Cancellation lands between runs, never inside a
	// run batch or mid-effect. Nil (the default) keeps the loop
	// select-free.
	Ctx context.Context
	// MaxSteps bounds the execution; exceeding it fails the run with
	// ReasonStepLimit. 0 means DefaultMaxSteps.
	MaxSteps uint64
	// Metrics, when non-nil, receives the substrate's counters:
	// sched_steps_total, sched_picks_total, sched_threads_total, plus
	// the fast-path instruments pres_sched_handoffs_total,
	// pres_sched_fastpath_steps_total and the pres_sched_run_length
	// histogram (see OBSERVABILITY.md). The instruments are resolved
	// once at Run, so the per-event cost is one atomic add; nil (the
	// default) keeps the hot path free of any measurement cost.
	Metrics *obs.Registry
	// SingleStep disables the fast path: one Pick per committed step,
	// no run budgets, no tight single-candidate loop, and the legacy
	// allocate-per-step view/event/effect-context structure. It is the
	// reference mode the equivalence property tests compare against and
	// the "before" side of the allocs/step benchmarks. Batches declared
	// with PointBatch still commit under one handoff (that part of the
	// protocol is thread-side and mode-independent).
	SingleStep bool
	// NoBatch makes Thread.PointBatch decompose into sequential Point
	// calls, one announce/grant round-trip per op — the reference the
	// batching tests compare handoff amortization against. Traces under
	// NoBatch are only comparable for strategies that ignore
	// Candidate.Run.
	NoBatch bool
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
	// Handoffs counts scheduler->thread channel grants. Batched ops
	// commit without one, so Handoffs <= Steps; the gap is the
	// amortization PointBatch buys. Identical between fast-path and
	// single-step modes.
	Handoffs uint64
	// FastPathSteps counts steps committed without a fresh Pick (the
	// 2nd..Nth steps of run grants and batch advances). Always 0 in
	// single-step mode.
	FastPathSteps uint64
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

type announcement struct {
	t      *Thread
	op     *Op
	run    []*Op // declared batch (PointBatch); op == run[0] when set
	exited bool
	fail   *Failure
}

// runLenBounds buckets the pres_sched_run_length histogram: how many
// steps each grant committed before control returned to the strategy.
var runLenBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Scheduler coordinates one execution. Create with Run.
type Scheduler struct {
	cfg      Config
	announce chan announcement
	stopC    chan struct{}
	threads  []*Thread // dense by TID; creation order == TID order
	nextTID  trace.TID
	inflight int // threads that will announce before the next pick
	live     int
	step     uint64
	failure  *Failure
	res      Result
	sleepReq bool                // set by EffectCtx.Sleep during the current grant
	ctxDone  <-chan struct{}     // Config.Ctx's done channel, nil when unset
	granter  RunGranter          // Strategy's optional run seam; nil in single-step mode
	runObs   []RunObserver       // observers that pre-reserve per granted run
	epochObs []EpochObserver     // observers sealed at control transfers
	quiObs   []QuiescentObserver // observers tapped at control transfers
	// lastGrant is the thread the previous pick round granted: the
	// owner of the currently open epoch. Sealed (for epochObs) when a
	// different thread is granted, and finally at end of execution.
	lastGrant *Thread

	// Reused per-step machinery (fast path). The view, candidate
	// buffer, committed event and effect context live for the whole
	// execution; the loop refills them in place so the steady state
	// allocates nothing.
	view  PickView
	cands []Candidate
	ev    trace.Event
	ectx  EffectCtx

	// Tight single-candidate loop state: when the previous view had
	// exactly one candidate and nothing that could change any thread's
	// candidacy happened since (no effects and no exits — or no other
	// live thread at all), the next round reuses the view with the solo
	// candidate refreshed in place instead of rescanning the table.
	solo       *Thread
	soloPrev   bool // previous pick round offered exactly one candidate
	effectsRan bool // any Effect ran since the last pick round
	exitSeen   bool // any thread exited since the last pick round

	// Pre-resolved metric instruments (nil when Config.Metrics is nil;
	// their methods are then single-nil-check no-ops).
	mSteps     *obs.Counter
	mPicks     *obs.Counter
	mThreads   *obs.Counter
	mHandoffs  *obs.Counter
	mFastSteps *obs.Counter
	mRunLen    *obs.Histogram
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
	s := &Scheduler{
		cfg:      cfg,
		announce: make(chan announcement),
		stopC:    make(chan struct{}),
	}
	if !cfg.SingleStep {
		s.granter, _ = cfg.Strategy.(RunGranter)
		for _, o := range cfg.Observers {
			if ro, ok := o.(RunObserver); ok {
				s.runObs = append(s.runObs, ro)
			}
		}
	}
	// Epoch seals fire in both modes — the epoch ring must see the same
	// seal points whether or not the fast path is on, so the two modes
	// stay trace- and cost-equivalent.
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
		s.mFastSteps = cfg.Metrics.Counter("pres_sched_fastpath_steps_total")
		s.mRunLen = cfg.Metrics.Histogram("pres_sched_run_length", runLenBounds)
	}
	if cfg.Ctx != nil {
		s.ctxDone = cfg.Ctx.Done()
	}
	t0 := s.addThread("main", trace.NoTID)
	s.inflight = 1
	go s.runThread(t0, root)
	s.loop()
	// Final epoch: the open epoch ends with the execution (shutdown and
	// failure paths included, so the sealed epochs always cover the
	// whole committed stream).
	if s.lastGrant != nil {
		for _, o := range s.epochObs {
			s.res.ExtraCost += o.OnEpochSeal()
		}
	}
	s.res.Failure = s.failure
	s.res.Steps = s.step
	return &s.res
}

func (s *Scheduler) addThread(name string, parent trace.TID) *Thread {
	t := &Thread{
		id:     s.nextTID,
		name:   name,
		parent: parent,
		s:      s,
		grant:  make(chan struct{}),
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

// runThread is the goroutine wrapper for one application thread.
func (s *Scheduler) runThread(t *Thread, fn func(*Thread)) {
	var fail *Failure
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if f, ok := r.(*Failure); ok {
				fail = f
				return
			}
			// A non-Failure panic is an application crash: treat it as
			// a manifested failure so the harness can observe it.
			fail = &Failure{
				Reason: ReasonCrash,
				TID:    t.id,
				Step:   s.step,
				Msg:    fmt.Sprint(r),
			}
		}()
		t.Point(&Op{Kind: trace.KindThreadStart, Obj: uint64(uint32(t.parent))})
		fn(t)
		t.Point(&Op{Kind: trace.KindThreadExit})
	}()
	if fail != nil && fail.Reason == reasonStopped {
		fail = nil // unwound during shutdown, not a real failure
	}
	s.announce <- announcement{t: t, exited: true, fail: fail}
}

// park records a non-exit announcement: the thread is at a point with a
// pending op (and possibly a declared batch behind it).
func (s *Scheduler) park(a announcement) {
	a.t.pending = a.op
	a.t.batch = a.run
	a.t.batchPos = 1
	a.t.state = stateParked
}

func (s *Scheduler) loop() {
	for {
		// Wait until no thread is executing user code.
		for s.inflight > 0 {
			a := <-s.announce
			s.inflight--
			if a.exited {
				s.handleExit(a)
			} else {
				s.park(a)
			}
		}
		if s.failure != nil || s.live == 0 {
			s.shutdown()
			return
		}
		if s.ctxDone != nil {
			// Non-blocking poll: cancellation lands at the next pick
			// point, never mid-effect or mid-run, so the unwind sees a
			// consistent simulation state.
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
		var view *PickView
		if s.soloUsable() {
			// Tight single-candidate loop: refresh the solo candidate
			// in place instead of rescanning the thread table. Sound
			// because nothing since the last round can have changed any
			// other thread's candidacy (see soloUsable).
			s.refreshSolo()
			view = &s.view
		} else if s.cfg.SingleStep {
			view = s.buildViewAlloc()
		} else {
			view = s.buildView()
		}
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
		budget := 1
		if s.granter != nil {
			if b := s.granter.RunBudget(view, tid); b > 1 {
				budget = b
			}
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
		solo := len(view.Candidates) == 1 && !s.cfg.SingleStep
		if s.cfg.SingleStep {
			s.grantSingle(t)
		} else {
			s.grantRun(t, budget)
		}
		s.soloPrev = solo
		s.solo = t
	}
}

// soloUsable reports whether the tight single-candidate loop may reuse
// the previous view. That requires: fast-path mode; the previous round
// offered exactly one candidate (which grantRun then ran); that thread
// is parked again with an enabled op; and nothing since the pick could
// have changed any other thread's candidacy — either no other live
// thread exists at all (effects are then harmless), or the whole run
// committed without effects and without exits. Enabledness only ever
// changes through op effects or thread exits (the package's state-
// mutation contract: Op.Enabled must read only state mutated inside
// effects, plus Join's done-state which exits flip), so under these
// conditions the candidate set is provably {solo} again.
func (s *Scheduler) soloUsable() bool {
	if !s.soloPrev || s.cfg.SingleStep {
		return false
	}
	t := s.solo
	if t.state != stateParked || !opEnabled(t.pending) {
		return false
	}
	return s.live == 1 || (!s.effectsRan && !s.exitSeen)
}

// refreshSolo rewrites the single candidate from the solo thread's new
// pending op, leaving the view's backing store untouched.
func (s *Scheduler) refreshSolo() {
	t := s.solo
	s.cands = s.cands[:1]
	s.cands[0] = Candidate{
		TID:  t.id,
		Kind: t.pending.Kind,
		Obj:  t.pending.Obj,
		Arg:  t.pending.Arg,
		Cost: t.pending.cost(),
		Run:  t.remainingRun(),
	}
	s.view.Step = s.step
	s.view.Candidates = s.cands
}

func opEnabled(op *Op) bool { return op != nil && (op.Enabled == nil || op.Enabled()) }

// buildView refills the reused view/candidate buffer (fast path).
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

// buildViewAlloc is the legacy allocate-per-step view construction, kept
// verbatim as the single-step reference (and the "before" side of the
// allocs/step benchmarks).
func (s *Scheduler) buildViewAlloc() *PickView {
	v := &PickView{Step: s.step}
	for _, t := range s.threads {
		if t.state == stateParked && opEnabled(t.pending) {
			v.Candidates = append(v.Candidates, Candidate{
				TID:  t.id,
				Kind: t.pending.Kind,
				Obj:  t.pending.Obj,
				Arg:  t.pending.Arg,
				Cost: t.pending.cost(),
				Run:  t.remainingRun(),
			})
		}
	}
	return v
}

// commit commits t's pending op as one step, filling ev (which the
// effect may amend) and fanning it out to observers. Shared by the fast
// and single-step paths; ev is &s.ev on the fast path and a fresh
// stack/heap event in single-step mode.
func (s *Scheduler) commit(t *Thread, ev *trace.Event) {
	op := t.pending
	t.pending = nil
	t.state = stateRunning
	s.step++
	s.mSteps.Inc()
	t.tcount++
	*ev = trace.Event{
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
		s.effectsRan = true
		if ev == &s.ev {
			s.ectx.t = t
			op.Effect(&s.ectx)
		} else {
			op.Effect(&EffectCtx{s: s, t: t, Ev: ev})
		}
	}
	if int(ev.Kind) < trace.NumKinds {
		s.res.EventsByKind[ev.Kind]++
	}
	for _, o := range s.cfg.Observers {
		s.res.ExtraCost += o.OnEvent(*ev)
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

// grantRun commits a run of up to budget steps for t: the pending op,
// then further ops from t's declared batch (handoff-free) or — when the
// budget allows — the ops t announces after each grant. The run ends
// when the budget is spent, the batch and budget end together, the
// thread sleeps or exits, its next op is disabled, a failure lands, or
// the step limit is reached. Cancellation is never checked here: it
// lands between runs, at the pick point.
func (s *Scheduler) grantRun(t *Thread, budget int) {
	if budget > 1 {
		for _, o := range s.runObs {
			o.OnRunStart(budget)
		}
	}
	s.effectsRan = false
	s.exitSeen = false
	runLen := 0
	for {
		s.commit(t, &s.ev)
		runLen++
		budget--
		if s.sleepReq {
			if t.batch != nil && t.batchPos < len(t.batch) {
				panic("sched: Sleep from a non-final op of a PointBatch")
			}
			t.batch = nil
			t.state = stateAsleep
			break // thread stays blocked in Point; no announcement coming
		}
		if advanceBatch(t) {
			// Next batch op is staged as pending with no handoff. Commit
			// it now if the budget allows; otherwise it waits, parked,
			// for the next pick round.
			if budget <= 0 || s.step >= s.cfg.MaxSteps || s.failure != nil {
				break
			}
			if s.granter != nil {
				s.granter.ObserveStep(t.id, t.pending.cost())
			}
			s.res.FastPathSteps++
			s.mFastSteps.Inc()
			continue
		}
		// Batch exhausted (or plain op): hand control back to the thread.
		s.res.Handoffs++
		s.mHandoffs.Inc()
		s.inflight++
		t.grant <- struct{}{}
		if budget <= 0 || s.step >= s.cfg.MaxSteps {
			break
		}
		// Continue the run through t's next announcement, parking any
		// other arrivals (children spawned by this run's effects) as
		// they come.
		tDone := false
		for {
			a := <-s.announce
			s.inflight--
			if a.exited {
				s.handleExit(a)
				if a.t == t {
					tDone = true
					break
				}
				continue
			}
			s.park(a)
			if a.t == t {
				break
			}
		}
		if tDone || s.failure != nil || !opEnabled(t.pending) {
			break
		}
		if s.granter != nil {
			s.granter.ObserveStep(t.id, t.pending.cost())
		}
		s.res.FastPathSteps++
		s.mFastSteps.Inc()
	}
	s.mRunLen.Observe(float64(runLen))
}

// grantSingle is the single-step reference path: one committed step per
// pick, with the legacy per-step event/effect-context allocation. Batch
// advances still happen protocol-side (the thread blocks in PointBatch
// until its last op commits), so traces and handoff counts match the
// fast path exactly.
func (s *Scheduler) grantSingle(t *Thread) {
	var ev trace.Event
	s.commit(t, &ev)
	s.mRunLen.Observe(1)
	if s.sleepReq {
		if t.batch != nil && t.batchPos < len(t.batch) {
			panic("sched: Sleep from a non-final op of a PointBatch")
		}
		t.batch = nil
		t.state = stateAsleep
		return // thread stays blocked in Point; no announcement coming
	}
	if advanceBatch(t) {
		return // next batch op waits, parked, for the next pick round
	}
	s.res.Handoffs++
	s.mHandoffs.Inc()
	s.inflight++
	t.grant <- struct{}{}
}

func (s *Scheduler) handleExit(a announcement) {
	a.t.state = stateDone
	s.live--
	s.exitSeen = true
	if a.fail != nil && s.failure == nil {
		s.failure = a.fail
	}
}

// shutdown unwinds every remaining thread: parked and asleep threads are
// woken through the stop channel and panic out of Point; we drain their
// exit announcements so no goroutine leaks.
func (s *Scheduler) shutdown() {
	close(s.stopC)
	for s.live > 0 {
		a := <-s.announce
		if a.exited {
			s.handleExit(a)
		}
		// Non-exit announcements during shutdown come from threads that
		// were mid-Point when stop closed; they will observe stopC on
		// their select and exit next. Nothing to do.
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
			f.Stuck = append(f.Stuck, Stuck{TID: t.id, Name: t.name, What: desc})
			fmt.Fprintf(&b, " t%d(%s) blocked at %s;", t.id, t.name, desc)
			if t.pending.BlockedOn != nil {
				if h := t.pending.BlockedOn(); h != trace.NoTID {
					waitsFor[t.id] = h
				}
			}
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
