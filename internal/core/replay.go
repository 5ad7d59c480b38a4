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

// ReplayOptions parameterizes the intelligent replayer.
type ReplayOptions struct {
	// MaxAttempts bounds the search; the paper uses 1000 as "not
	// reproduced". 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Feedback enables race-directed search (the paper's feedback
	// generation). When false, each attempt explores the sketch-
	// constrained space with an independent random seed — the E5
	// ablation baseline.
	Feedback bool
	// BranchFactor bounds how many race flips a failed attempt enqueues
	// (nearest the failure point first). 0 means DefaultBranchFactor.
	BranchFactor int
	// Oracle matches the target bug; nil accepts any manifested bug.
	Oracle Oracle
	// MaxSteps bounds each attempt. 0 inherits the recording's bound.
	MaxSteps uint64
	// UseLockset selects the Eraser-style lockset detector for feedback
	// generation instead of the default happens-before detector — an
	// ablation of the feedback source (see BenchmarkAblationDetector).
	UseLockset bool
	// SketchTail, when positive, replays with only the last N sketch
	// entries, as a soft guide rather than a hard constraint. This
	// models bounded-storage deployments that truncate the sketch log
	// (the paper's answer to log growth is checkpointing; ours is tail
	// retention) — experiment E9 measures how reproduction degrades as
	// the retained fraction shrinks.
	SketchTail int
	// FromCheckpoint starts every attempt from the recording's newest
	// retained checkpoint (recordings made with Options.EpochRing and
	// CheckpointEvery > 0): the prefix up to the checkpoint is
	// re-executed deterministically under the production strategy and
	// validated against the checkpoint's digests, then the director
	// enforces only the sketch window from the checkpoint on. Flip-point
	// enumeration is likewise confined to races after the boundary, so
	// search depth is bounded by the retained epochs, not the whole
	// execution. Ignored (with no effect on the search trajectory) when
	// the recording carries no checkpoint. Overrides SketchTail.
	FromCheckpoint bool
	// PrefixSnapshots enables snapshot-tree search (snapshot.go):
	// directed attempts capture world + engine snapshots at scheduler
	// quiescent points, keyed by flip-set prefix, and child attempts
	// whose flip sets extend a captured prefix resume from the deepest
	// safe snapshot instead of re-executing from step 0. Reproduction
	// results and the Workers:1 search trajectory are unchanged (the
	// equivalence property tests pin this); what changes is the work: a
	// restored attempt fast-forwards its shared prefix mechanically and
	// pays detection and scheduling-decision cost only on its divergent
	// suffix. Ignored under FromCheckpoint (the recording checkpoint
	// already anchors every attempt) and without Feedback (without a
	// frontier there are no shared prefixes).
	PrefixSnapshots bool
	// SnapshotBudgetBytes bounds the in-memory snapshot cache;
	// least-recently-used snapshots are evicted past it. 0 means
	// search.DefaultSnapshotBudget (64 MiB).
	SnapshotBudgetBytes int64
	// Workers sizes the work-stealing attempt pool. Each worker pulls
	// the next canonical attempt — alternating probabilistic samples
	// and directed frontier pops — and runs it as an independent
	// execution; results commit strictly in canonical attempt order, so
	// the first success in that order wins and Attempts reports its
	// position. The first reproduction cooperatively cancels in-flight
	// later attempts. Workers <= 1 preserves the exact sequential
	// search, attempt for attempt — the deterministic baseline. Workers
	// above GOMAXPROCS are honoured, but on compute-bound searches they
	// only preempt one another (EXPERIMENTS.md E11).
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

// DefaultBranchFactor bounds feedback fan-out per failed attempt.
const DefaultBranchFactor = 8

func (o ReplayOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return o.MaxAttempts
}

func (o ReplayOptions) branch() int {
	if o.BranchFactor <= 0 {
		return DefaultBranchFactor
	}
	return o.BranchFactor
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
	// Steps, Handoffs and FastPathSteps total the executed attempts'
	// scheduler counters (sched.Result): committed points, strategy
	// handoffs, and grants committed on the run-grant fast path.
	// Handoffs/Steps is the search's handoff amortization.
	Steps         uint64
	Handoffs      uint64
	FastPathSteps uint64
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
	// Err distinguishes an interrupted search from an exhausted one:
	// context.Canceled or context.DeadlineExceeded when the search's
	// context ended before the budget did, nil otherwise. A search that
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
// internal/search sharded priority frontier: there is no wave barrier —
// a failed directed attempt's children enter the frontier the moment it
// commits, and any idle worker steals them. Attempt outcomes commit
// strictly in canonical attempt order, so stats, feedback, dedup and
// every observability surface behave as if the attempts had run
// sequentially; the first success in canonical order wins and
// cooperatively cancels in-flight later attempts. With Workers <= 1 the
// engine degenerates to the exact sequential search — dispatch, execute
// and commit strictly alternate — which is the deterministic baseline
// the tests pin.
//
// Cancelling ctx stops the search cooperatively: no new attempts
// dispatch, in-flight attempts abort at their next scheduling point,
// already-completed attempts still commit in canonical order, and the
// pool drains without leaking a goroutine. The result reports the
// committed prefix with Err set to the context's error.
func ReplayContext(ctx context.Context, prog *appkit.Program, rec *Recording, opts ReplayOptions) *ReplayResult {
	s := &searchState{
		prog:      prog,
		rec:       rec,
		opts:      opts,
		feedback:  opts.Feedback,
		budget:    opts.maxAttempts(),
		maxW:      max(1, opts.Workers),
		failTID:   trace.NoTID,
		seen:      map[string]bool{"": true},
		racesSeen: map[race.PairKey]bool{},
		r:         &ReplayResult{},
	}
	s.cancel.Store(cancelNone)
	if opts.PrefixSnapshots {
		s.digest = searchDigest(prog, rec, opts)
	}
	if s.feedback {
		s.frontier = search.NewFrontier[replayNode](s.maxW)
		s.frontier.Push(replayNode{}, 0)
		if opts.PrefixSnapshots {
			if _, cp := activeCheckpoint(rec, opts); !cp {
				s.snaps = search.NewSnapshotCache(opts.SnapshotBudgetBytes)
			}
		}
		// The production run's failing thread, if the recording captured
		// the failure: races involving it are the prime suspects.
		if f := rec.BugFailure(); f != nil {
			s.failTID = f.TID
		}
	}
	var active *obs.Gauge
	var occ *obs.Histogram
	if m := opts.Metrics; m != nil {
		active = m.Gauge("pres_replay_workers_active")
		occ = m.Histogram("pres_replay_wave_occupancy", waveBuckets)
		if _, ok := activeCheckpoint(rec, opts); ok {
			m.Counter("pres_replay_from_checkpoint_total", "scheme", rec.Scheme.String()).Inc()
		}
	}

	err := exec.Run(ctx, exec.Config{
		Workers:   s.maxW,
		Budget:    s.budget,
		Active:    active,
		Occupancy: occ,
	}, s)
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
