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
	// steps, handoffs and fastSteps are the execution's scheduler
	// counters (sched.Result): committed points, strategy handoffs and
	// fast-path grants.
	steps     uint64
	handoffs  uint64
	fastSteps uint64
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
// scheduling point instead of running to completion.
//
// The wrapper deliberately does not forward sched.RunGranter: even if
// an inner strategy declared run budgets, a wrapped attempt must fall
// back to budget-1 grants so the cancellation poll runs between every
// two points. The director never grants budgets anyway (see its doc),
// so nothing is lost.
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

// runAttempt performs one coordinated replay: sketch enforcement plus
// the given flip set, with the race detector watching for feedback.
// cancel, when non-nil, lets a concurrent earlier success abort this
// attempt between scheduling points; ctx cancellation aborts it the
// same way, via the scheduler's own context poll. sp, when non-nil,
// enrolls the attempt in the snapshot tree (snapshot.go): it tries to
// resume from a parent prefix snapshot and captures its own snapshots
// for future children.
func runAttempt(ctx context.Context, prog *appkit.Program, rec *Recording, fs flipSet, rng *rand.Rand, opts ReplayOptions, idx int64, cancel *atomic.Int64, sp *snapPlan) attemptOutcome {
	start := time.Now()
	world := vsys.NewWorld(rec.Options.WorldSeed)
	entries := rec.Sketch.Entries
	softStart := false
	cp, fromCP := activeCheckpoint(rec, opts)
	if !fromCP {
		world.StartReplay(rec.Inputs)
	}
	// Checkpointed attempts leave the world in Live mode: the prefix
	// re-execution regenerates the recorded inputs from the world seed,
	// and the prefix strategy's boundary hook flips to Replay mode at the
	// validated boundary (see checkpoint.go).
	switch {
	case fromCP:
		// Checkpointed replay: the prefix is re-executed exactly, so the
		// window from the checkpoint is enforced strictly from entry 0 —
		// no soft start. Overrides SketchTail (the checkpoint decides
		// where constrained replay begins).
		entries = windowFrom(rec, cp)
	case opts.SketchTail > 0 && opts.SketchTail < len(entries):
		// Tail-only replay: the prefix of the execution is
		// unconstrained, so the sketch can only ever be a soft guide.
		entries = entries[len(entries)-opts.SketchTail:]
		softStart = true
	}
	dir := newDirector(rec.Scheme, entries, fs, rng)
	dir.soft = dir.soft || softStart
	var det raceDetector = race.NewDetector()
	if opts.UseLockset {
		det = race.NewLocksetDetector()
	}
	cap := &orderCapture{}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = rec.Options.MaxSteps
	}

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
				return ok && st.dir.executed[nf.holdTID]+1 < nf.holdCount
			})
			if snap != nil {
				if st := snap.State.(*snapState); st != nil {
					if rdet, _ := cloneDetector(st.det); rdet != nil {
						installDirState(dir, st.dir)
						ps = snapshotPrefix(snap, dir, world)
						det = rdet
						strat = ps
						// The clone already holds the prefix, so it sees
						// suffix events only; registering it directly would
						// replay the prefix into it a second time.
						observers = []sched.Observer{dir, &suffixFeed{det: rdet, skip: snap.Step}, cap, ps}
						digest, base = ps.digest, snap.Step
					}
				}
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
		MaxSteps:  maxSteps,
		Metrics:   opts.Metrics,
		Ctx:       ctx,
	}, world)

	out := attemptOutcome{
		races: det.Pairs(), horizon: dir.exhaustStep, consumed: dir.k,
		note:  dir.divergeNote,
		steps: res.Steps, handoffs: res.Handoffs, fastSteps: res.FastPathSteps,
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
		out.note = "checkpoint boundary mismatch: recording and prefix re-execution disagree"
		if out.restored {
			out.note = "snapshot boundary mismatch: parent prefix and forced re-execution disagree"
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
	out      attemptOutcome
}

// searchState is one replay search, expressed as the exec pool's
// Runner. The layering splits the old monolith's responsibilities:
//
//   - the pool (internal/exec) owns canonical index dispatch, the
//     strict in-order commit drain, worker lifecycle, context
//     cancellation and the budget clamp on live workers. Dispatch,
//     Complete and Commit below run under the pool's mutex, so the
//     canonical-order state they touch (directedLive, the dedup set
//     `seen`, racesSeen, the result) needs no further locking — the
//     same single-lock discipline the old engine had, now borrowed
//     from the pool.
//   - the frontier and the snapshot cache (internal/search) carry
//     their own finer locks, so pushes, steals and snapshot probes
//     from other workers never wait on a commit in progress.
//   - cancel is the cross-worker atomic, mutated from Run (which
//     holds no lock): the lowest attempt index known to have
//     reproduced, polled by in-flight attempts at every scheduling
//     point.
type searchState struct {
	prog     *appkit.Program
	rec      *Recording
	opts     ReplayOptions
	feedback bool
	budget   int
	maxW     int
	digest   uint64 // snapshot-key context digest
	failTID  trace.TID
	frontier *search.Frontier[replayNode]
	// snaps is the prefix-snapshot cache (nil unless PrefixSnapshots is
	// on, feedback is in play and no recording checkpoint overrides it).
	// It carries its own lock; workers probe and store directly.
	snaps  *search.SnapshotCache
	cancel atomic.Int64

	// Guarded by the pool's mutex (only touched from Dispatch, Complete
	// and Commit).
	directedLive int // dispatched directed attempts not yet completed
	seen         map[string]bool
	racesSeen    map[race.PairKey]bool
	r            *ReplayResult
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
// A directed slot that finds the frontier empty while another directed
// attempt is still in flight waits for that attempt to commit instead
// of burning the slot on a speculative random sample: the in-flight
// attempt's feedback is about to refill the frontier, and the paper's
// search is worth more per execution than blind sampling. At Workers=1
// no other attempt is ever in flight, so the sequential composition —
// pop if available, else random — is untouched.
func (s *searchState) Dispatch(worker, idx int) exec.Decision {
	if directedSlot(s.feedback, idx) {
		if nd, ok := s.frontier.Pop(worker); ok {
			s.directedLive++
			return exec.Decision{Job: &searchJob{idx: idx, directed: true, nd: nd, seed: int64(idx)}}
		}
		if s.directedLive > 0 {
			return exec.Decision{Wait: true}
		}
	}
	return exec.Decision{Job: &searchJob{idx: idx, seed: int64(idx)}}
}

// Run produces the attempt's outcome by running the simulated
// execution.
func (s *searchState) Run(ctx context.Context, worker, idx int, job any) {
	j := job.(*searchJob)
	seeded := !j.directed && seededSlot(s.feedback, j.idx)
	var rng *rand.Rand
	if seeded {
		rng = rand.New(rand.NewSource(j.seed))
	}
	var cancel *atomic.Int64
	if s.maxW > 1 {
		cancel = &s.cancel
	}
	var sp *snapPlan
	if s.snaps != nil && j.directed {
		sp = &snapPlan{cache: s.snaps, parentKey: j.nd.parentKey, bound: j.nd.bound}
		if len(j.nd.fs.flips) < maxFlipDepth {
			// Attempts at the depth cap never spawn children, so their
			// prefixes are never restored from: don't pay to capture them.
			sp.selfKey = snapKey(s.digest, canonicalFlipKey(j.nd.fs))
		}
	}
	j.out = runAttempt(ctx, s.prog, s.rec, j.nd.fs, rng, s.opts, int64(j.idx), cancel, sp)
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

// Complete records an attempt's completion (in completion order,
// before its canonical commit): the in-flight bookkeeping dispatch
// consults must not wait for canonical order.
func (s *searchState) Complete(idx int, job any) {
	j := job.(*searchJob)
	if j.directed {
		s.directedLive--
	}
}

// Commit folds one attempt, in canonical order, into the result:
// observability, stats, and — for failed directed attempts — feedback
// children into the frontier. Returning false on a reproduction stops
// the pool: the first success in canonical order wins.
func (s *searchState) Commit(idx int, job any) bool {
	j := job.(*searchJob)
	r := s.r
	r.Attempts++
	r.Stats.Steps += j.out.steps
	r.Stats.Handoffs += j.out.handoffs
	r.Stats.FastPathSteps += j.out.fastSteps
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
	if j.out.cancelled {
		// A truncated execution's races and horizon describe a run that
		// never finished: no feedback, no race folding.
		return true
	}
	for _, p := range j.out.races {
		s.racesSeen[p.Key()] = true
	}
	r.Stats.RacesSeen = len(s.racesSeen)
	if j.directed {
		r.Stats.FlipsEnqueued += s.appendChildren(j.nd, j.out)
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
