package sched

import (
	"math/rand"

	"repro/internal/trace"
)

// Lowest is the trivial strategy: always run the runnable thread with
// the smallest id. Useful in tests and as a deterministic baseline.
type Lowest struct{}

// Pick implements Strategy.
func (Lowest) Pick(view *PickView) (trace.TID, bool) {
	return view.Candidates[0].TID, true
}

// RandomMP models execution on P processors — the production-run
// environment of the paper — with *time-weighted* scheduling: each
// thread accumulates virtual time equal to the cost of the operations
// it executes (with a little random jitter standing in for cache
// misses, interrupts and frequency wobble), and among the threads
// currently on a processor the one furthest behind runs next.
//
// Time weighting is what gives race windows realistic odds: a thread
// spends most of its time inside long straight-line regions, so the
// chance that another processor's access lands inside a handful-of-
// instructions window is the window's share of wall time — small — and
// concurrency bugs manifest rarely, exactly as in production. (A
// uniform per-event scheduler would hit every window almost every run.)
//
// Threads beyond the processor count wait off-CPU; a thread joins a
// processor when one frees up (its wait time is charged so it rejoins
// at "now"), and timeslice preemption occasionally rotates waiting
// threads in. Given the same seed and program, the schedule is fully
// deterministic.
//
// When a full pick round chooses a thread that has declared a
// straight-line batch (Candidate.Run > 1), the following picks run the
// rest of the batch — a batch models uninterrupted straight-line
// execution on one processor, during which no cross-CPU scheduling
// event can land anyway. Each of those picks charges the op's virtual
// time (speed x per-op jitter) and makes no dispatch or preemption
// roll. All bookkeeping is indexed by dense TID.
type RandomMP struct {
	P       int     // processor count (>=1)
	Preempt float64 // per-point preemption probability, e.g. 0.02
	Seed    int64

	rng *rand.Rand
	// Dense per-TID state. speed 0 means "not yet drawn" (real factors
	// lie in [0.75, 1.25], so 0 is a safe sentinel).
	vt    []float64
	speed []float64
	onCPU []bool

	// Reused pick-round scratch.
	inView  []bool
	running []Candidate
	waiting []Candidate

	// Run continuation: set when a full pick round picks a batch; the
	// next picks drain it, charging each op without fresh dispatch
	// rolls.
	runTID  trace.TID
	runLeft int
}

// NewRandomMP returns a production-run strategy for p processors.
func NewRandomMP(p int, preempt float64, seed int64) *RandomMP {
	if p < 1 {
		p = 1
	}
	return &RandomMP{
		P:       p,
		Preempt: preempt,
		Seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// grow extends the per-TID tables to cover tid.
func (s *RandomMP) grow(tid trace.TID) {
	for int(tid) >= len(s.vt) {
		s.vt = append(s.vt, 0)
		s.speed = append(s.speed, 0)
		s.onCPU = append(s.onCPU, false)
		s.inView = append(s.inView, false)
	}
}

// charge advances tid's virtual time by one op of the given cost: the
// thread's per-run speed factor (drawn on first use) times ±15% per-op
// jitter. This is the only rng consumption during a run, shared by the
// full pick round and the run continuation.
func (s *RandomMP) charge(tid trace.TID, cost uint64) {
	sp := s.speed[tid]
	if sp == 0 {
		sp = 0.75 + 0.5*s.rng.Float64()
		s.speed[tid] = sp
	}
	jitter := 0.85 + 0.3*s.rng.Float64()
	s.vt[tid] += float64(cost) * sp * jitter
}

// Pick implements Strategy.
func (s *RandomMP) Pick(view *PickView) (trace.TID, bool) {
	if s.rng == nil { // zero-value usability for tests
		if s.P < 1 {
			s.P = 1
		}
		s.rng = rand.New(rand.NewSource(s.Seed))
	}
	if n := len(view.Candidates); n > 0 {
		s.grow(view.Candidates[n-1].TID) // candidates are TID-sorted
	}

	// Run continuation: the previous full round picked a batch; keep
	// charging its ops without fresh dispatch or preemption rolls.
	if s.runLeft > 0 {
		if c, ok := view.Find(s.runTID); ok {
			s.runLeft--
			s.charge(c.TID, c.Cost)
			return c.TID, true
		}
		s.runLeft = 0 // run ended early; resume full rounds
	}

	// A blocked, asleep or exited thread releases its processor (and
	// will pay the wake-up latency to get one back); the on-CPU set is
	// the runnable threads that held a processor last round, in
	// candidate (tid) order for determinism.
	for i := range s.inView {
		s.inView[i] = false
	}
	for _, c := range view.Candidates {
		s.inView[c.TID] = true
	}
	for tid := range s.onCPU {
		if s.onCPU[tid] && !s.inView[tid] {
			s.onCPU[tid] = false
		}
	}
	running := s.running[:0]
	waiting := s.waiting[:0]
	for _, c := range view.Candidates {
		if s.onCPU[c.TID] {
			running = append(running, c)
		} else {
			waiting = append(waiting, c)
		}
	}

	// Fill free processors with the furthest-behind waiting threads. A
	// thread that was off-CPU rejoins at the current virtual "now" plus
	// a randomized wake-up latency — the dispatch delay a real kernel
	// adds, and the main source of alignment noise between a waker and
	// the woken.
	now := 0.0
	for _, c := range running {
		if s.vt[c.TID] > now {
			now = s.vt[c.TID]
		}
	}
	for len(running) < s.P && len(waiting) > 0 {
		i := s.minVT(waiting)
		c := waiting[i]
		waiting = append(waiting[:i], waiting[i+1:]...)
		wake := now + wakeLatency*s.rng.Float64()
		if s.vt[c.TID] < wake {
			s.vt[c.TID] = wake
		}
		s.onCPU[c.TID] = true
		running = append(running, c)
	}

	// Timeslice preemption: occasionally rotate a waiting thread in for
	// the thread that has consumed the most time.
	if len(waiting) > 0 && s.Preempt > 0 && s.rng.Float64() < s.Preempt {
		vi := s.maxVT(running)
		wi := s.minVT(waiting)
		victim, incoming := running[vi], waiting[wi]
		s.onCPU[victim.TID] = false
		s.onCPU[incoming.TID] = true
		if s.vt[incoming.TID] < s.vt[victim.TID] {
			s.vt[incoming.TID] = s.vt[victim.TID]
		}
		running[vi] = incoming
	}
	s.running, s.waiting = running[:0], waiting[:0] // return scratch

	// The thread furthest behind in virtual time executes next. Its op
	// costs its duration scaled by the thread's per-run speed factor —
	// cache state, co-runners and frequency make otherwise identical
	// threads drift apart by tens of percent on real hardware, and that
	// drift is what varies the alignment of race windows from run to
	// run — plus ±15% per-op jitter.
	i := s.minVT(running)
	choice := running[i]
	s.charge(choice.TID, choice.Cost)
	if choice.Run > 1 {
		s.runTID = choice.TID
		s.runLeft = choice.Run - 1
	}
	return choice.TID, true
}

// wakeLatency bounds the randomized dispatch delay (in cost units, see
// trace.CostUnit) a thread pays when it rejoins a processor — roughly a
// microsecond-scale kernel wakeup against ten-nanosecond-scale accesses.
const wakeLatency = 1500

func (s *RandomMP) minVT(cs []Candidate) int {
	best := 0
	for i := 1; i < len(cs); i++ {
		if s.vt[cs[i].TID] < s.vt[cs[best].TID] {
			best = i
		}
	}
	return best
}

func (s *RandomMP) maxVT(cs []Candidate) int {
	best := 0
	for i := 1; i < len(cs); i++ {
		if s.vt[cs[i].TID] > s.vt[cs[best].TID] {
			best = i
		}
	}
	return best
}

// OrderStrategy replays a captured full grant order verbatim. If the
// recorded thread is not runnable at its turn the run diverges — with a
// faithful full order this never happens, which is the paper's
// "reproduce every time" property.
type OrderStrategy struct {
	Order []trace.TID
	pos   int
}

// Pick implements Strategy.
func (s *OrderStrategy) Pick(view *PickView) (trace.TID, bool) {
	if s.pos >= len(s.Order) {
		return trace.NoTID, false
	}
	tid := s.Order[s.pos]
	if !view.Has(tid) {
		return trace.NoTID, false
	}
	s.pos++
	return tid, true
}
