// Package exec is the canonical-commit worker pool both engines of the
// replayer run on: core.Replay's attempt search and the harness's
// experiment-cell fan-out. The pool owns everything generic about
// ordered parallel work — index dispatch, the strict in-order commit of
// results and cooperative context cancellation — while the Runner
// callback owns what the work *is*. See INTERNALS.md for the layering.
package exec

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// Decision is a Runner's answer to one dispatch offer.
type Decision struct {
	// Job is the work composed for this canonical index; the pool hands
	// it back verbatim to Run and Commit.
	Job any
	// Wait declines the offer until another in-flight job completes
	// (e.g. a directed slot waiting for feedback that has not committed
	// yet). A Runner may only return Wait while at least one job is in
	// flight — the completion's broadcast is what re-offers the index.
	Wait bool
}

// Runner is the work a pool executes. Dispatch and Commit are called
// under the pool's mutex — they may touch shared state without further
// locking, and must not block. Run is called without the lock and does
// the actual work. Which goroutine runs an index is not observable.
type Runner interface {
	// Dispatch composes the job for canonical index idx. The index is
	// consumed unless the decision is Wait.
	Dispatch(idx int) Decision
	// Run executes one job. ctx is the pool's context; long work should
	// observe it so cancellation drains promptly.
	Run(ctx context.Context, idx int, job any)
	// Commit folds one finished job into the result, called strictly in
	// canonical index order. Returning false stops the pool: no further
	// indices dispatch and no later results commit (first-success
	// semantics).
	Commit(idx int, job any) bool
}

// Config parameterizes one pool run.
type Config struct {
	// Workers is the pool width; values below 1 mean 1. A one-worker
	// pool degenerates to a strict dispatch-run-commit alternation —
	// byte-identical to a sequential loop.
	Workers int
	// Budget is the number of canonical indices to dispatch (required,
	// > 0): indices 0..Budget-1 unless a Commit stops the pool early.
	Budget int
	// Active, when non-nil, tracks the in-flight job count (a gauge the
	// caller names; nil-safe). Occupancy, when non-nil, receives the
	// in-flight count sampled at each dispatch.
	Active    *obs.Gauge
	Occupancy *obs.Histogram
}

// Run executes cfg.Budget canonical indices over r and blocks until
// every worker has drained. On context cancellation no new indices
// dispatch, in-flight jobs are left to finish (observing ctx), their
// already-completed canonical prefix still commits in order, and the
// context's error is returned — the pool never leaks a goroutine.
// A nil error means the run ended by budget or by a Commit stop.
//
// Memory visibility (the snapshot-handoff contract): within one job,
// the pool's mutex orders Dispatch → Run → Commit, so a job's Run sees
// everything its Dispatch composed and its Commit sees everything its
// Run wrote. Across jobs the pool promises nothing about Run-to-Run
// ordering at Workers > 1 — two Runs may be fully concurrent — so
// artifacts one Run publishes for another (e.g. the replay search's
// prefix snapshots) must flow through a container that synchronizes
// internally; the publishing Run must treat an artifact as immutable
// once shared. At Workers: 1 the strict dispatch-run-commit
// alternation does order every effect of job i before job i+1's
// Dispatch, which is what lets a one-worker search consume artifacts
// published earlier in the same run as if it were a sequential loop.
// TestPoolArtifactHandoff pins both halves.
func Run(ctx context.Context, cfg Config, r Runner) error {
	if cfg.Budget <= 0 {
		return ctx.Err()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Budget {
		workers = cfg.Budget
	}
	p := &pool{
		cfg:     cfg,
		ctx:     ctx,
		r:       r,
		pending: make(map[int]any),
	}
	p.cond = sync.NewCond(&p.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker()
		}()
	}
	wg.Wait()
	return p.err
}

// pool is the shared state of one Run. mu orders everything canonical:
// index dispatch and the in-order commit drain — the same single-lock
// discipline the Runner's callbacks piggyback on for their own shared
// state.
type pool struct {
	cfg Config
	ctx context.Context
	r   Runner

	mu         sync.Mutex
	cond       *sync.Cond
	next       int // next canonical index to dispatch
	commitNext int // next canonical index to commit
	pending    map[int]any
	stopped    bool  // a Commit returned false; stop dispatch and commits
	err        error // ctx error observed by dispatch; stops dispatch only
	active     int   // jobs currently in flight
}

func (p *pool) worker() {
	for {
		idx, job, ok := p.dispatch()
		if !ok {
			return
		}
		p.r.Run(p.ctx, idx, job)
		p.complete(idx, job)
	}
}

// dispatch reserves the next canonical index and asks the Runner to
// compose its job. Returns ok=false when the run is over: budget
// dispatched, a Commit stopped the pool, or the context was cancelled.
// A Wait decision parks until another job completes: a Runner may only
// Wait while something is in flight, that job's completion broadcasts,
// and a cancelled in-flight execution observes ctx at its next
// scheduling point, so the pool always drains.
func (p *pool) dispatch() (int, any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err == nil {
			if err := p.ctx.Err(); err != nil {
				p.err = err
			}
		}
		if p.stopped || p.err != nil || p.next >= p.cfg.Budget {
			return 0, nil, false
		}
		d := p.r.Dispatch(p.next)
		if d.Wait {
			p.cond.Wait()
			continue
		}
		idx := p.next
		p.next++
		p.active++
		p.observeOccupancyLocked()
		return idx, d.Job, true
	}
}

// complete hands a finished job to the committer: results commit
// strictly in canonical index order, so whichever worker completes the
// next-in-order job drains everything contiguous behind it. The drain
// runs even after cancellation — already-completed work still commits;
// only *new* dispatch stops.
func (p *pool) complete(idx int, job any) {
	p.mu.Lock()
	p.active--
	p.cfg.Active.Set(float64(p.active))
	p.pending[idx] = job
	for !p.stopped {
		nj, ok := p.pending[p.commitNext]
		if !ok {
			break
		}
		delete(p.pending, p.commitNext)
		p.commitNext++
		if !p.r.Commit(p.commitNext-1, nj) {
			p.stopped = true
		}
	}
	p.mu.Unlock()
	// Re-offer indices a Wait decision parked, and let parked workers
	// see a stop.
	p.cond.Broadcast()
}

// observeOccupancyLocked samples how many jobs are in flight at
// dispatch time into the caller's occupancy histogram and active gauge.
func (p *pool) observeOccupancyLocked() {
	p.cfg.Occupancy.Observe(float64(p.active))
	p.cfg.Active.Set(float64(p.active))
}
