package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/appkit"
	"repro/internal/exec"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// This file is the replay search engine: the exec.Runner that composes,
// executes and commits attempts on the canonical-commit pool. The
// public surface lives in replay.go, the observability plumbing in
// report.go, and the feedback generation in feedback.go.

type attemptOutcome struct {
	bug      bool
	failure  *sched.Failure
	races    []race.Pair
	order    *trace.FullOrder
	diverged bool
	clean    bool
	// cancelled marks an attempt the context cut short: the execution
	// unwound at a scheduling point before reaching a verdict, so the
	// outcome describes a truncated run and must never feed the
	// feedback frontier.
	cancelled bool
	// horizon is the step nearest the recorded execution's end: the
	// step at which the sketch was fully consumed, or where the attempt
	// stopped if it never was. The production run died here, so races
	// near it are the prime flip candidates.
	horizon uint64
	// consumed counts the sketch entries the director honored; note is
	// its divergence note, if any; wall is the attempt's wall-clock
	// duration. All three feed the attempt trace (see obs.AttemptEvent).
	consumed int
	note     string
	wall     time.Duration
	// cpMismatch marks an attempt whose re-execution of the
	// recording's checkpoint prefix missed the checkpoint; every
	// attempt re-executes that prefix alike (ErrCheckpointMismatch).
	cpMismatch bool
	// steps and handoffs are the execution's scheduler counters
	// (sched.Result): committed points and thread handoffs.
	steps    uint64
	handoffs uint64
	// Prefix-snapshot accounting (snapshot.go): restored marks an
	// attempt that resumed from a parent snapshot, ffSteps its forced
	// fast-forward prefix length, snapMiss a probe that found no usable
	// snapshot; captures/capBytes/evicted tally the attempt's own
	// stores into the snapshot cache.
	restored bool
	snapMiss bool
	ffSteps  uint64
	captures int
	capBytes int64
	evicted  int
}

// cancelNone is the sentinel for "no reproduction known yet" in the
// cooperative-cancellation word (any real attempt index is smaller).
const cancelNone = int64(^uint64(0) >> 1)

// cancellableStrategy wraps an attempt's strategy with a poll of the
// search-wide first-success index: once some earlier-canonical attempt
// has reproduced, later in-flight attempts abort at their next
// scheduling point instead of running to completion. The scheduler
// picks at every point, so the poll runs between every two points.
type cancellableStrategy struct {
	inner  sched.Strategy
	idx    int64
	cancel *atomic.Int64
}

func (c *cancellableStrategy) Pick(view *sched.PickView) (trace.TID, bool) {
	if c.cancel.Load() < c.idx {
		return trace.NoTID, false
	}
	return c.inner.Pick(view)
}

// attemptBufs is the storage one attempt borrows from its search and
// leaves grown for the next: the race detector, the order capture's
// slice, the director's per-thread counts and virtual times, and a
// random attempt's generator. The zero value is ready to use. An
// attempt resets what it borrows before it runs, so a recycled set and
// a fresh one run identical attempts.
type attemptBufs struct {
	det      *race.Detector
	order    []trace.TID
	executed perThread[uint64]
	vt       perThread[float64]
	rng      *rand.Rand
}

// seeded returns b's generator reseeded with seed: the sequence
// rand.New(rand.NewSource(seed)) yields, without allocating a source.
func (b *attemptBufs) seeded(seed int64) *rand.Rand {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(seed))
	} else {
		b.rng.Seed(seed)
	}
	return b.rng
}

// runAttempt performs one coordinated replay: sketch enforcement plus
// the given flip set, with the race detector watching for feedback.
// cancel, when non-nil, lets a concurrent earlier success abort this
// attempt between scheduling points; ctx cancellation aborts it the
// same way, via the scheduler's own context poll. sp, when non-nil,
// enrolls the attempt in the snapshot tree (snapshot.go): it tries to
// resume from a parent prefix snapshot and captures its own snapshots
// for future children. The attempt runs in b's storage; its outcome's
// races and order alias it, so b must not be lent again before the
// outcome has been committed.
func runAttempt(ctx context.Context, prog *appkit.Program, rec *Recording, fs flipSet, rng *rand.Rand, opts ReplayOptions, idx int64, cancel *atomic.Int64, sp *snapPlan, b *attemptBufs) attemptOutcome {
	start := time.Now()
	world := vsys.NewWorld(rec.Options.WorldSeed)
	entries := rec.Sketch.Entries
	cp, fromCP := activeCheckpoint(rec)
	if fromCP {
		// Checkpointed attempts leave the world in Live mode: the prefix
		// re-execution regenerates the recorded inputs from the world
		// seed, and the prefix strategy's boundary hook flips to Replay
		// mode at the validated boundary (see checkpoint.go). The prefix
		// is re-executed exactly, so the window from the checkpoint is
		// enforced strictly from its first entry.
		entries = windowFrom(rec, cp)
	} else {
		world.StartReplay(rec.Inputs)
	}
	dir := newDirector(rec.Scheme, entries, fs, rng)
	dir.executed, dir.vt = b.executed[:0], b.vt[:0]
	// A recording whose head was evicted and that kept no checkpoint
	// leaves the start of the execution unconstrained, so its sketch
	// can only ever be a soft guide.
	dir.soft = dir.soft || !fromCP && rec.Epochs != nil && rec.Epochs.EvictedEntries > 0
	if b.det == nil {
		b.det = race.NewDetector()
	}
	b.det.Reset()
	det := b.det
	cap := &orderCapture{order: b.order[:0]}

	var strat sched.Strategy = dir
	observers := []sched.Observer{dir, det, cap}
	// ps, when set, forces a prefix before the director takes over
	// (prefix.go): the recording's checkpoint, or a parent snapshot.
	var ps *prefixStrategy
	if fromCP {
		ps = checkpointPrefix(rec, cp, dir, world)
		strat = ps
		observers = append(observers, ps)
	}
	var sn *snapshotter
	snapMiss := false
	if sp != nil && !fromCP && rng == nil {
		digest := trace.NewDigest()
		var base uint64
		if sp.parentKey != "" && sp.bound > 0 && len(fs.flips) > 0 {
			// The flip this child adds to its parent's set is the last one
			// in discovery order; only snapshots from strictly before it
			// could have engaged are prefix-equivalent (see snapshot.go).
			nf := fs.flips[len(fs.flips)-1]
			snap := sp.cache.Best(sp.parentKey, sp.bound, func(s *search.Snapshot) bool {
				st, ok := s.State.(*snapState)
				return ok && st.dir.executed.at(nf.pair.First.TID)+1 < nf.pair.First.TCount
			})
			if snap != nil {
				st := snap.State.(*snapState)
				installDirState(dir, st.dir)
				ps = snapshotPrefix(snap, dir, world)
				det = st.det.Clone()
				strat = ps
				// The clone already holds the prefix, so it sees suffix
				// events only; registering it directly would replay the
				// prefix into it a second time.
				observers = []sched.Observer{dir, &suffixFeed{det: det, skip: snap.Step}, cap, ps}
				digest, base = ps.digest, snap.Step
			} else {
				snapMiss = true
			}
		}
		sn = newSnapshotter(world, cap, dir, det, sp, digest, base)
		observers = append(observers, sn)
	}
	if cancel != nil {
		strat = &cancellableStrategy{inner: strat, idx: idx, cancel: cancel}
	}
	res := execute(prog, rec.Options, sched.Config{
		Strategy:  strat,
		Observers: observers,
		MaxSteps:  rec.Options.MaxSteps,
		Metrics:   opts.Metrics,
		Ctx:       ctx,
	}, world)
	b.order, b.executed, b.vt = cap.order, dir.executed, dir.vt

	out := attemptOutcome{
		races: det.Pairs(), horizon: dir.exhaustStep, consumed: dir.k,
		note:  dir.divergeNote,
		steps: res.Steps, handoffs: res.Handoffs,
	}
	if out.horizon == 0 {
		out.horizon = res.Steps
	}
	if fromCP {
		// Only races whose first access falls after the boundary are
		// flippable: the prefix is re-executed verbatim every attempt, so
		// a flip holding a prefix access could never engage differently.
		kept := out.races[:0:0]
		for _, p := range out.races {
			if p.FirstSeq > cp.Step {
				kept = append(kept, p)
			}
		}
		out.races = kept
	}
	out.snapMiss = snapMiss
	out.restored = ps != nil && !fromCP
	if out.restored {
		out.ffSteps = ps.boundary
	}
	if ps != nil && ps.mismatch {
		if out.restored {
			out.note = "snapshot boundary mismatch: parent prefix and forced re-execution disagree"
		} else {
			out.note = "checkpoint boundary mismatch: recording and prefix re-execution disagree"
			out.cpMismatch = true
		}
	}
	if sn != nil {
		out.captures = sn.captures
		out.capBytes = sn.capBytes
		out.evicted = sn.evicted
	}
	switch {
	case res.Failure == nil:
		out.clean = true
	case res.Failure.IsBug() && opts.oracle()(res.Failure):
		out.bug = true
		out.failure = res.Failure
		out.order = cap.full()
	case res.Failure.Reason == sched.ReasonDiverged:
		out.diverged = true
	case res.Failure.Reason == sched.ReasonCancelled:
		out.cancelled = true
	}
	out.wall = time.Since(start)
	return out
}

// searchJob is one dispatched attempt: its canonical index, what kind
// of exploration it performs, and (after running) its outcome.
type searchJob struct {
	idx      int // 0-based canonical attempt index
	directed bool
	nd       replayNode
	seed     int64
	bufs     *attemptBufs
	out      attemptOutcome
}

// searchState is one replay search, expressed as the exec pool's
// Runner. The layering splits the old monolith's responsibilities:
//
//   - the pool (internal/exec) owns canonical index dispatch, the
//     strict in-order commit drain, worker lifecycle and context
//     cancellation. Dispatch and Commit below run under the pool's
//     mutex, so the state they touch (the frontier, directedLive, the
//     flipSetID dedup set `seen`, the race-id table raceIDs, the free
//     buffer list, the result) needs no lock of its own: the pool's
//     mutex is the search's only lock.
//   - the snapshot cache (internal/search) is probed and filled from
//     Run, which holds no lock, so it carries its own.
//   - cancel is the cross-worker atomic, mutated from Run: the lowest
//     attempt index known to have reproduced, polled by in-flight
//     attempts at every scheduling point.
type searchState struct {
	prog     *appkit.Program
	rec      *Recording
	opts     ReplayOptions
	feedback bool
	budget   int
	maxW     int
	digest   uint64 // snapshot-key context digest
	frontier *search.Frontier[replayNode]
	// snaps is the prefix-snapshot cache (nil unless PrefixSnapshots is
	// on, feedback is in play and no recording checkpoint overrides it).
	// It carries its own lock; workers probe and store directly.
	snaps  *search.SnapshotCache
	cancel atomic.Int64

	// Guarded by the pool's mutex (only touched from Dispatch and
	// Commit).
	directedLive int // dispatched directed attempts not yet committed
	seen         map[flipSetID]bool
	// raceIDs gives each distinct race the search has folded a dense
	// id, in first-fold order. Folds run in canonical order, so the ids
	// are the same at every Workers count.
	raceIDs map[race.PairKey]int32
	r       *ReplayResult
	ids     []int32  // the folded attempt's race ids, index for index
	rank    []ranked // appendChildren's ranking scratch
	// considered, when set, sees every candidate child appendChildren
	// reaches the dedup check with: the parent's flips, the added flip
	// and the child's flipSetID. Tests use it to pin the dedup key.
	considered func(parent flipSet, f flip, set flipSetID)
	// free holds the buffer sets committed attempts handed back;
	// Dispatch lends one to every job (see Commit for which come back).
	free []*attemptBufs
	// stopErr is why fold ended the search without a reproduction
	// (ErrCheckpointMismatch), nil while the search runs its budget.
	stopErr error
}

// directedSlot reports whether canonical attempt idx pops the directed
// frontier: with feedback, even indices are directed and odd indices
// sample the sketch-constrained space; without feedback none are.
func directedSlot(feedback bool, idx int) bool { return feedback && idx%2 == 0 }

// seededSlot reports whether non-directed attempt idx explores with an
// index-seeded random schedule. Only the no-feedback ablation (the
// paper's E5 baseline) runs its attempt 0 as the deterministic sticky
// baseline instead. Both rules are pure functions of the index, which
// the canonical-order commits rely on.
func seededSlot(feedback bool, idx int) bool { return feedback || idx != 0 }

// Dispatch composes the attempt for canonical index idx: directedSlot
// decides whether it pops the directed frontier (priority:
// breadth-first over flip depth — nearly every real bug needs only one
// or two reorderings, so all single flips are tried before any pair)
// or samples the space probabilistically.
//
// The composition is the sequential search's at every Workers count.
// Dispatch reads only the frontier and directedLive, and both change
// only at commits, which run in canonical order. At Workers: 1 every
// earlier attempt has committed when idx is offered. At Workers > 1
// some may not have, and the frontier then lacks the children of the
// uncommitted directed attempts. No commit after the first uncommitted
// attempt has run, so those missing children have a higher seq than
// every node already present and, the search tree being breadth-first,
// no smaller depth: a non-empty frontier's minimum is the node the
// sequential search pops. An empty frontier with a directed attempt
// still uncommitted waits for that commit, where the sequential search
// would pop one of its children. An empty frontier with none
// uncommitted is empty in the sequential search too, so the slot
// samples at random as it would.
//
// The wait is live: a directed attempt that has completed but not
// committed is held back by a lower index still in flight, and that
// attempt's completion re-offers the slot.
//
// Every job leaves with a buffer set to run in: one a committed
// attempt handed back, or a new one.
func (s *searchState) Dispatch(idx int) exec.Decision {
	j := &searchJob{idx: idx, seed: int64(idx)}
	if directedSlot(s.feedback, idx) {
		if nd, ok := s.frontier.Pop(0); ok {
			s.directedLive++
			j.directed, j.nd = true, nd
		} else if s.directedLive > 0 {
			return exec.Decision{Wait: true}
		}
	}
	if n := len(s.free); n > 0 {
		j.bufs = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j.bufs = new(attemptBufs)
	}
	return exec.Decision{Job: j}
}

// Run produces the attempt's outcome by running the simulated
// execution.
func (s *searchState) Run(ctx context.Context, idx int, job any) {
	j := job.(*searchJob)
	seeded := !j.directed && seededSlot(s.feedback, j.idx)
	var rng *rand.Rand
	if seeded {
		rng = j.bufs.seeded(j.seed)
	}
	var cancel *atomic.Int64
	if s.maxW > 1 {
		cancel = &s.cancel
	}
	var sp *snapPlan
	if s.snapshotted(j) {
		sp = &snapPlan{cache: s.snaps, parentKey: j.nd.parentKey, bound: j.nd.bound}
		if len(j.nd.fs.flips) < maxFlipDepth {
			// Attempts at the depth cap never spawn children, so their
			// prefixes are never restored from: don't pay to capture them.
			sp.selfKey = snapKey(s.digest, canonicalFlipKey(j.nd.fs))
		}
	}
	j.out = runAttempt(ctx, s.prog, s.rec, j.nd.fs, rng, s.opts, int64(j.idx), cancel, sp, j.bufs)
	if j.out.bug {
		// Publish the reproduction immediately (before its canonical
		// turn): in-flight attempts with higher indices poll this word
		// and abort at their next scheduling point.
		for {
			cur := s.cancel.Load()
			if int64(j.idx) >= cur || s.cancel.CompareAndSwap(cur, int64(j.idx)) {
				break
			}
		}
	}
}

// Commit folds one attempt, in canonical order, into the result, then
// takes back the attempt's buffers: once folded, nothing reads the
// outcome's races or order any more. Two kinds of attempt keep theirs:
// a reproduction, whose captured order becomes ReplayResult.Order, and
// one with a snapshot plan, whose captured snapshots alias its order
// slice. A job that never commits (the search ended first) keeps its
// buffers too. Returning false on a reproduction stops the pool: the
// first success in canonical order wins; a checkpoint mismatch stops it
// too (fold).
func (s *searchState) Commit(idx int, job any) bool {
	j := job.(*searchJob)
	more := s.fold(j)
	if more && !s.snapshotted(j) {
		s.free = append(s.free, j.bufs)
	}
	return more
}

// snapshotted reports whether job j ran with a snapshot plan (see Run).
func (s *searchState) snapshotted(j *searchJob) bool { return s.snaps != nil && j.directed }

// fold folds one attempt into the result: observability, stats, and —
// for failed directed attempts — feedback children into the frontier.
// It reports false on a reproduction or a checkpoint mismatch.
func (s *searchState) fold(j *searchJob) bool {
	if j.directed {
		s.directedLive--
	}
	r := s.r
	r.Attempts++
	r.Stats.Steps += j.out.steps
	r.Stats.Handoffs += j.out.handoffs
	if s.snaps != nil {
		if j.out.restored {
			r.Stats.SnapshotHits++
		}
		if j.out.snapMiss {
			r.Stats.SnapshotMisses++
		}
		r.Stats.SnapshotCaptures += j.out.captures
		r.Stats.SnapshotEvicted += j.out.evicted
		r.Stats.SnapshotBytes += j.out.capBytes
		r.Stats.FastForwardSteps += j.out.ffSteps
		if m := s.opts.Metrics; m != nil {
			if j.out.restored {
				m.Counter("pres_search_snapshot_hits_total").Inc()
			}
			if j.out.snapMiss {
				m.Counter("pres_search_snapshot_misses_total").Inc()
			}
			if j.out.capBytes > 0 {
				m.Counter("pres_search_snapshot_bytes_total").Add(uint64(j.out.capBytes))
			}
			if j.out.evicted > 0 {
				m.Counter("pres_search_snapshot_evicted_total").Add(uint64(j.out.evicted))
			}
		}
	}
	s.opts.reportAttempt(r.Attempts, j.directed, j.nd.fs, j.out)
	if j.out.bug {
		r.Reproduced = true
		r.Failure = j.out.failure
		r.Order = j.out.order
		if j.directed {
			r.Flips = len(j.nd.fs.flips)
			r.RootCauses = j.nd.fs.pairs()
		}
		return false
	}
	switch {
	case j.out.cancelled:
		r.Stats.Cancelled++
	case j.out.diverged:
		r.Stats.Divergences++
	case j.out.clean:
		r.Stats.CleanRuns++
	default:
		r.Stats.OtherFailures++
	}
	if j.out.cpMismatch {
		// Every attempt re-executes the same checkpoint prefix under
		// the same options, so every later one would miss it too.
		s.stopErr = ErrCheckpointMismatch
		return false
	}
	if j.out.cancelled {
		// A truncated execution's races and horizon describe a run that
		// never finished: no feedback, no race folding.
		return true
	}
	ids := s.ids[:0]
	for _, p := range j.out.races {
		k := p.Key()
		id, ok := s.raceIDs[k]
		if !ok {
			id = int32(len(s.raceIDs))
			s.raceIDs[k] = id
		}
		ids = append(ids, id)
	}
	s.ids = ids
	r.Stats.RacesSeen = len(s.raceIDs)
	if j.directed {
		r.Stats.FlipsEnqueued += s.appendChildren(j.nd, j.out, ids)
	}
	if m := s.opts.Metrics; m != nil && s.feedback {
		depth := float64(s.frontier.Len())
		m.Gauge("pres_replay_frontier_depth").Set(depth)
		m.Gauge("pres_replay_frontier_depth_peak").SetMax(depth)
	}
	return true
}

// outcomeName classifies an attempt outcome for progress reporting.
func outcomeName(out attemptOutcome) string {
	switch {
	case out.bug:
		return "reproduced"
	case out.clean:
		return "clean"
	case out.diverged:
		return "diverged"
	case out.cancelled:
		return "cancelled"
	default:
		return "other"
	}
}
