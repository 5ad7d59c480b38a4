package harness

import (
	"context"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Pool fans independent experiment cells out to the shared
// canonical-commit worker pool (internal/exec) — the same substrate
// core.Replay's attempt search runs on. The experiment matrices
// (app x scheme, bug x procs, ...) are embarrassingly parallel: every
// cell derives its seeds from its own identity (bug id, scheme,
// processor count), never from worker identity or arrival order, so a
// pool run measures the exact same trajectories a sequential run
// would — results are committed into canonical cell order and the
// regenerated tables are byte-identical at any worker count.
type Pool struct {
	workers int
	cells   *obs.Counter // pres_harness_cells_total{exp}
	active  *obs.Gauge   // pres_harness_workers_active
}

// NewPool returns a pool of the given width reporting to m (nil m
// disables metrics at zero cost). Width < 1 means sequential.
func NewPool(workers int, exp string, m *obs.Registry) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{
		workers: workers,
		cells:   m.Counter("pres_harness_cells_total", "exp", exp),
		active:  m.Gauge("pres_harness_workers_active"),
	}
}

// cellRunner adapts an index-addressed cell function to exec.Runner:
// the job is the index itself, and the canonical-order commit is where
// the cell counter ticks — so the count grows in table order even when
// cells finish out of order.
type cellRunner struct {
	cell  func(i int)
	cells *obs.Counter
}

func (r *cellRunner) Dispatch(idx int) exec.Decision            { return exec.Decision{} }
func (r *cellRunner) Run(ctx context.Context, idx int, job any) { r.cell(idx) }
func (r *cellRunner) Commit(idx int, job any) bool              { r.cells.Inc(); return true }

// Run executes cell(0..n-1) on the pool under ctx. Each cell must
// write only to its own result slot; Run returns once every worker has
// drained. Cancelling ctx stops dispatching new cells — cells already
// running finish (their own executions observe the same context), and
// the context's error is returned.
func (p *Pool) Run(ctx context.Context, n int, cell func(i int)) error {
	if n <= 0 {
		return nil
	}
	return exec.Run(ctx, exec.Config{
		Workers: min(p.workers, n),
		Budget:  n,
		Active:  p.active,
	}, &cellRunner{cell: cell, cells: p.cells})
}

// runCells evaluates n independent experiment cells on cfg's pool and
// returns their results in canonical cell order — the deterministic
// commit that keeps `-j N` tables byte-identical to `-j 1`. Under a
// cancelled config context the undispatched cells stay zero-valued;
// callers render what was measured.
func runCells[R any](cfg Config, exp string, n int, cell func(i int) R) []R {
	if n <= 0 {
		return nil
	}
	out := make([]R, n)
	// The context error is deliberately dropped here: experiment
	// renderers consume the partial rows, and the caller inspects
	// cfg.ctx().Err() to report the interruption.
	_ = NewPool(cfg.jobs(), exp, cfg.Metrics).Run(cfg.ctx(), n, func(i int) {
		out[i] = cell(i)
	})
	return out
}
