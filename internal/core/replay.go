package core

import (
	"context"

	"repro/internal/appkit"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Oracle decides whether a manifested failure is the bug under
// diagnosis. The default accepts any manifested bug.
type Oracle func(*sched.Failure) bool

// MatchBugID returns an oracle accepting assertion failures with the
// given id, or — for deadlock bugs — any detected deadlock.
func MatchBugID(id string) Oracle {
	return func(f *sched.Failure) bool {
		if f.Reason == sched.ReasonDeadlock {
			return id == "" || isDeadlockID(id)
		}
		return id == "" || f.BugID == id
	}
}

// isDeadlockID reports whether a corpus bug id denotes a deadlock bug
// (by convention their ids contain "deadlock").
func isDeadlockID(id string) bool {
	for i := 0; i+8 <= len(id); i++ {
		if id[i:i+8] == "deadlock" {
			return true
		}
	}
	return false
}

// ReplayOptions parameterizes the intelligent replayer. Where each
// attempt starts and how many steps it may take are not options: the
// recording decides both (see checkpoint.go).
type ReplayOptions struct {
	// MaxAttempts bounds the search; the paper uses 1000 as "not
	// reproduced". 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Feedback enables race-directed search (the paper's feedback
	// generation). When false, each attempt explores the sketch-
	// constrained space with an independent random seed — the E5
	// ablation baseline.
	Feedback bool
	// Oracle matches the target bug; nil accepts any manifested bug.
	Oracle Oracle
	// PrefixSnapshots enables snapshot-tree search (snapshot.go):
	// directed attempts capture world + engine snapshots at scheduler
	// quiescent points, keyed by flip-set prefix, and child attempts
	// whose flip sets extend a captured prefix resume from the deepest
	// safe snapshot instead of re-executing from step 0. Reproduction
	// results and the Workers:1 search trajectory are unchanged (the
	// equivalence property tests pin this); what changes is the work: a
	// restored attempt fast-forwards its shared prefix mechanically and
	// pays detection and scheduling-decision cost only on its divergent
	// suffix. Ignored when the recording carries a checkpoint (it
	// already anchors every attempt) and without Feedback (without a
	// frontier there are no shared prefixes).
	PrefixSnapshots bool
	// SnapshotBudgetBytes bounds the in-memory snapshot cache;
	// least-recently-used snapshots are evicted past it. 0 means
	// search.DefaultSnapshotBudget (64 MiB).
	SnapshotBudgetBytes int64
	// Workers sizes the attempt pool: how many attempts may run at
	// once. It is a wall-clock knob only. Attempts are composed and
	// their results committed in canonical attempt order, so a search
	// makes the same attempts, flips, steps and captured order at every
	// Workers count; the first success in that order wins and
	// cooperatively cancels in-flight later attempts. Workers <= 1 runs
	// one attempt at a time. Workers above GOMAXPROCS are honoured, but
	// on compute-bound searches they only preempt one another (bench's
	// exec.worker_speedup measures the scaling).
	Workers int
	// OnAttempt, if set, is called after each attempt (in canonical
	// order) with its 1-based index, mode ("directed" or "random") and
	// outcome ("reproduced", "clean", "diverged", "cancelled" or
	// "other") — live progress for interactive tools. It is implemented
	// on top of the same per-attempt events Trace receives.
	OnAttempt func(i int, mode, outcome string)
	// Metrics, when non-nil, receives the search's metrics: attempt
	// counters by mode and outcome, attempt wall-time histograms,
	// frontier depth, distinct races seen, worker occupancy and the
	// substrate's scheduler counters (see OBSERVABILITY.md). Nil, the
	// default, keeps the replay hot path free of measurement cost.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one structured obs.AttemptEvent per
	// attempt in canonical order, closed by an obs.SummaryEvent — the
	// JSONL search trace OBSERVABILITY.md documents.
	Trace *obs.TraceSink
}

// DefaultMaxAttempts is the paper's reproduction budget.
const DefaultMaxAttempts = 1000

// branchFactor bounds how many race flips a failed attempt enqueues
// (nearest the failure point first). INTERNALS.md records the sweep
// of 2, 8 and 16 that chose it.
const branchFactor = 8

func (o ReplayOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return o.MaxAttempts
}

func (o ReplayOptions) oracle() Oracle {
	if o.Oracle == nil {
		return func(f *sched.Failure) bool { return true }
	}
	return o.Oracle
}

// ReplayStats counts what the search did.
type ReplayStats struct {
	Divergences   int // attempts that diverged from the sketch
	CleanRuns     int // attempts that completed without the bug
	OtherFailures int // step limits or non-matching bugs
	Cancelled     int // attempts cut short by context cancellation
	RacesSeen     int // distinct race pairs observed across attempts
	FlipsEnqueued int // feedback children pushed
	FrontierDried bool
	// Steps and Handoffs total the executed attempts' scheduler
	// counters (sched.Result): committed points and thread handoffs.
	// Handoffs/Steps is the search's handoff amortization.
	Steps    uint64
	Handoffs uint64
	// Prefix-snapshot accounting (PrefixSnapshots on): attempts restored
	// from / denied a parent snapshot, snapshots captured and evicted,
	// bytes written into the snapshot cache, and the total steps the
	// restored attempts fast-forwarded mechanically instead of deciding.
	// Steps - FastForwardSteps is the search's truly re-executed work —
	// the quantity the snapshot tree exists to shrink.
	SnapshotHits     int
	SnapshotMisses   int
	SnapshotCaptures int
	SnapshotEvicted  int
	SnapshotBytes    int64
	FastForwardSteps uint64
}

// ReplayResult is the outcome of the replay search.
type ReplayResult struct {
	Reproduced bool
	Attempts   int              // attempts performed (including the success)
	Failure    *sched.Failure   // the reproduced failure, if any
	Order      *trace.FullOrder // captured full order of the success
	Flips      int              // flips in the successful attempt's set
	// RootCauses are the unrecorded races the successful attempt had to
	// reverse relative to the deterministic baseline — the replayer's
	// diagnosis of which accesses constitute the bug. Empty when the
	// success came from a probabilistic attempt or needed no flips.
	RootCauses []race.Pair
	Stats      ReplayStats
	// Err distinguishes a search that stopped early from an exhausted
	// one: context.Canceled or context.DeadlineExceeded when the
	// search's context ended before the budget did,
	// ErrCheckpointMismatch when the first attempt could not re-execute
	// the recording's checkpoint prefix, nil otherwise. A search that
	// reproduced reports Err == nil even if cancellation raced its
	// shutdown — a success is a success. Attempts and Stats always
	// describe the committed canonical prefix.
	Err error
}

// Replay is the intelligent replayer: it searches the unrecorded
// non-deterministic space left by the sketch until the bug reproduces or
// the attempt budget is exhausted. It is ReplayContext with a background
// context.
func Replay(prog *appkit.Program, rec *Recording, opts ReplayOptions) *ReplayResult {
	return ReplayContext(context.Background(), prog, rec, opts)
}

// ReplayContext runs the replay search under ctx.
//
// With feedback (the paper's design — it is *probabilistic* replay),
// the search alternates two kinds of coordinated attempts: directed
// ones, each a deterministic function of the recorded sketch and a set
// of race flips learned from earlier failures (nearest the failure
// point first), and probabilistic ones that sample the sketch-
// constrained space with a time-weighted random schedule. Directed
// attempts systematically force the windows random sampling is unlikely
// to hit; random attempts cover window shapes the race-flip vocabulary
// cannot express. Without feedback, only the random sampling remains —
// the paper's ablation baseline.
//
// The search runs on the internal/exec canonical-commit pool over the
// internal/search priority frontier: there is no wave barrier — a
// failed directed attempt's children enter the frontier the moment it
// commits. Attempts are composed and their outcomes committed strictly
// in canonical attempt order, so stats, feedback, dedup and every
// observability surface are those of the sequential search at any
// Workers count (see searchState.Dispatch); the first success in
// canonical order wins and cooperatively cancels in-flight later
// attempts.
//
// Cancelling ctx stops the search cooperatively: no new attempts
// dispatch, in-flight attempts abort at their next scheduling point,
// already-completed attempts still commit in canonical order, and the
// pool drains without leaking a goroutine. The result reports the
// committed prefix with Err set to the context's error.
func ReplayContext(ctx context.Context, prog *appkit.Program, rec *Recording, opts ReplayOptions) *ReplayResult {
	s := newSearchState(prog, rec, opts)
	var active *obs.Gauge
	var occ *obs.Histogram
	if m := opts.Metrics; m != nil {
		active = m.Gauge("pres_replay_workers_active")
		occ = m.Histogram("pres_replay_wave_occupancy", waveBuckets)
		if _, ok := activeCheckpoint(rec); ok {
			m.Counter("pres_replay_from_checkpoint_total", "scheme", rec.Scheme.String()).Inc()
		}
	}

	err := exec.Run(ctx, exec.Config{
		Workers:   s.maxW,
		Budget:    s.budget,
		Active:    active,
		Occupancy: occ,
	}, s)
	if s.stopErr != nil {
		err = s.stopErr
	}
	if err == nil {
		// The pool can finish its last dispatched indices while the
		// context expires; the search was still cut short.
		err = ctx.Err()
	}
	if s.r.Reproduced {
		err = nil // a success that raced shutdown is still a success
	}
	s.r.Err = err

	if !s.r.Reproduced && err == nil && s.feedback {
		s.r.Stats.FrontierDried = s.frontier.Len() == 0
		if m := opts.Metrics; m != nil {
			m.Gauge("pres_replay_frontier_depth").Set(float64(s.frontier.Len()))
		}
	}
	opts.reportSearch(s.r)
	return s.r
}

// newSearchState sets up one search before its first dispatch.
func newSearchState(prog *appkit.Program, rec *Recording, opts ReplayOptions) *searchState {
	s := &searchState{
		prog:     prog,
		rec:      rec,
		opts:     opts,
		feedback: opts.Feedback,
		budget:   opts.maxAttempts(),
		maxW:     max(1, opts.Workers),
		seen:     map[flipSetID]bool{{}: true},
		raceIDs:  map[race.PairKey]int32{},
		r:        &ReplayResult{},
	}
	s.cancel.Store(cancelNone)
	if s.feedback {
		s.frontier = search.NewFrontier[replayNode](0)
		s.frontier.Push(replayNode{}, 0)
		if _, cp := activeCheckpoint(rec); opts.PrefixSnapshots && !cp {
			s.snaps = search.NewSnapshotCache(opts.SnapshotBudgetBytes)
			s.digest = searchDigest(prog, rec)
		}
	}
	return s
}

// Reproduce replays a captured full order and returns the run's result;
// with a faithful order the recorded bug manifests every time.
func Reproduce(prog *appkit.Program, rec *Recording, order *trace.FullOrder) *sched.Result {
	return ReproduceContext(context.Background(), prog, rec, order)
}

// ReproduceContext replays a captured full order under ctx; a cancelled
// context unwinds the execution at its next scheduling point with a
// ReasonCancelled failure.
func ReproduceContext(ctx context.Context, prog *appkit.Program, rec *Recording, order *trace.FullOrder) *sched.Result {
	world := vsys.NewWorld(rec.Options.WorldSeed)
	world.StartReplay(rec.Inputs)
	return execute(prog, rec.Options, sched.Config{
		Strategy: &sched.OrderStrategy{Order: order.Order},
		MaxSteps: rec.Options.MaxSteps,
		Ctx:      ctx,
	}, world)
}
