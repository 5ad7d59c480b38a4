package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// countRunner runs every index once and records the commit order.
type countRunner struct {
	runs []atomic.Int32

	mu      sync.Mutex
	commits []int
	stopAt  int // commit returns false at this index; -1 = never
	onRun   func(ctx context.Context, idx int)
}

func newCountRunner(n int) *countRunner {
	return &countRunner{runs: make([]atomic.Int32, max(n, 1)), stopAt: -1}
}

func (r *countRunner) Dispatch(worker, idx int) Decision { return Decision{Job: idx} }

func (r *countRunner) Run(ctx context.Context, worker, idx int, job any) {
	if job.(int) != idx {
		panic("job does not carry its own index")
	}
	r.runs[idx].Add(1)
	if r.onRun != nil {
		r.onRun(ctx, idx)
	}
}

func (r *countRunner) Complete(idx int, job any) {}

func (r *countRunner) Commit(idx int, job any) bool {
	r.mu.Lock()
	r.commits = append(r.commits, idx)
	r.mu.Unlock()
	return idx != r.stopAt
}

func (r *countRunner) committed() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.commits...)
}

func TestPoolRunsEveryIndexOnceCommitsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{1, 5, 100} {
			r := newCountRunner(n)
			// Stagger completion so out-of-order finishes actually occur.
			r.onRun = func(_ context.Context, idx int) {
				if idx%3 == 0 {
					time.Sleep(time.Microsecond)
				}
			}
			if err := Run(context.Background(), Config{Workers: workers, Budget: n}, r); err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			for i := 0; i < n; i++ {
				if got := r.runs[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			commits := r.committed()
			if len(commits) != n {
				t.Fatalf("workers=%d n=%d: %d commits", workers, n, len(commits))
			}
			for i, idx := range commits {
				if idx != i {
					t.Fatalf("workers=%d n=%d: commit %d was index %d (not canonical)", workers, n, i, idx)
				}
			}
		}
	}
}

func TestPoolCommitStopIsFirstSuccess(t *testing.T) {
	const n, stop = 200, 17
	r := newCountRunner(n)
	r.stopAt = stop
	if err := Run(context.Background(), Config{Workers: 8, Budget: n}, r); err != nil {
		t.Fatalf("err = %v", err)
	}
	commits := r.committed()
	if len(commits) != stop+1 {
		t.Fatalf("committed %d results after a stop at %d, want %d", len(commits), stop, stop+1)
	}
	for i, idx := range commits {
		if idx != i {
			t.Fatalf("commit %d was index %d", i, idx)
		}
	}
}

func TestPoolCancelCommitsCompletedPrefix(t *testing.T) {
	// Cancel mid-run: no new indices dispatch, in-flight jobs finish,
	// their canonical prefix still commits in order, the ctx error is
	// returned, and Run's return proves the workers drained.
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	r := newCountRunner(n)
	var ran atomic.Int32
	r.onRun = func(ctx context.Context, idx int) {
		if ran.Add(1) == 20 {
			cancel()
		}
	}
	err := Run(ctx, Config{Workers: 4, Budget: n}, r)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	commits := r.committed()
	if len(commits) == 0 || len(commits) >= n {
		t.Fatalf("committed %d of %d after cancel", len(commits), n)
	}
	for i, idx := range commits {
		if idx != i {
			t.Fatalf("commit %d was index %d (prefix broken)", i, idx)
		}
	}
	// Every dispatched job ran to completion despite the cancel: the
	// commit drain never outruns the runs.
	if int(ran.Load()) < len(commits) {
		t.Fatalf("%d commits but only %d runs", len(commits), ran.Load())
	}
}

func TestPoolPreCancelledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newCountRunner(10)
	if err := Run(ctx, Config{Workers: 4, Budget: 10}, r); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range r.runs {
		if r.runs[i].Load() != 0 {
			t.Fatalf("index %d ran after pre-cancel", i)
		}
	}
	if len(r.committed()) != 0 {
		t.Fatal("commits after pre-cancel")
	}
}

// waitRunner exercises the Wait decision: odd indices decline dispatch
// until the preceding even index has committed.
type waitRunner struct {
	countRunner
	done []atomic.Bool
}

func (r *waitRunner) Dispatch(worker, idx int) Decision {
	if idx%2 == 1 && !r.done[idx-1].Load() {
		return Decision{Wait: true}
	}
	return Decision{Job: idx}
}

func (r *waitRunner) Commit(idx int, job any) bool {
	r.done[idx].Store(true)
	return r.countRunner.Commit(idx, job)
}

func TestPoolWaitDecisionIsReoffered(t *testing.T) {
	const n = 40
	r := &waitRunner{countRunner: *newCountRunner(n), done: make([]atomic.Bool, n)}
	if err := Run(context.Background(), Config{Workers: 8, Budget: n}, r); err != nil {
		t.Fatalf("err = %v", err)
	}
	commits := r.committed()
	if len(commits) != n {
		t.Fatalf("%d commits, want %d", len(commits), n)
	}
}

func TestPoolMetricsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	active := reg.Gauge("test_workers_active")
	occ := reg.Histogram("test_occupancy", []float64{1, 2, 4, 8})
	r := newCountRunner(50)
	if err := Run(context.Background(), Config{
		Workers: 4, Budget: 50, Active: active, Occupancy: occ,
	}, r); err != nil {
		t.Fatalf("err = %v", err)
	}
	if got := active.Value(); got != 0 {
		t.Fatalf("active gauge = %v after Run returned, want 0", got)
	}
	if occ.Count() != 50 {
		t.Fatalf("occupancy observations = %d, want 50", occ.Count())
	}
}

// artifactRunner models the replay search's prefix-snapshot handoff:
// every Run publishes an immutable artifact for its index into a
// mutex-guarded store and consumes the deepest predecessor artifact
// already published, checksumming it to catch torn reads. Under -race
// this pins the visibility contract Run's doc promises: cross-job
// artifact flow through an internally synchronized container is safe
// at any width, and a one-worker pool always sees its immediate
// predecessor (strict alternation).
type artifactRunner struct {
	countRunner

	mu    sync.Mutex
	store map[int][]byte

	sawPred []atomic.Bool
}

func newArtifactRunner(n int) *artifactRunner {
	r := &artifactRunner{
		countRunner: *newCountRunner(n),
		store:       make(map[int][]byte),
		sawPred:     make([]atomic.Bool, n),
	}
	return r
}

func artifactFor(idx int) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(idx*31 + i)
	}
	return b
}

func (r *artifactRunner) Run(ctx context.Context, worker, idx int, job any) {
	r.countRunner.Run(ctx, worker, idx, job)
	// Consume: deepest already-published predecessor, verified intact.
	r.mu.Lock()
	best := -1
	for i := idx - 1; i >= 0; i-- {
		if _, ok := r.store[i]; ok {
			best = i
			break
		}
	}
	var got []byte
	if best >= 0 {
		got = r.store[best] // shared slice: published-immutable
	}
	r.mu.Unlock()
	if best >= 0 {
		want := artifactFor(best)
		for i := range got {
			if got[i] != want[i] {
				panic("artifact torn or mutated after publication")
			}
		}
		if best == idx-1 {
			r.sawPred[idx].Store(true)
		}
	}
	// Publish this job's artifact; it must never be written again.
	r.mu.Lock()
	r.store[idx] = artifactFor(idx)
	r.mu.Unlock()
}

func TestPoolArtifactHandoff(t *testing.T) {
	const n = 200
	// Any width: publication through the synchronized store is safe and
	// intact (the -race build and the checksum enforce it).
	for _, workers := range []int{1, 2, 8} {
		r := newArtifactRunner(n)
		if err := Run(context.Background(), Config{Workers: workers, Budget: n}, r); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(r.committed()) != n {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(r.committed()), n)
		}
		if workers == 1 {
			// Strict alternation: job i's publication is ordered before
			// job i+1's Run, so every job sees its immediate predecessor.
			for i := 1; i < n; i++ {
				if !r.sawPred[i].Load() {
					t.Fatalf("workers=1: job %d did not see job %d's artifact", i, i-1)
				}
			}
		}
	}
}
