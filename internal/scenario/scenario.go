// Package scenario stresses the PRES pipeline beyond the corpus with a
// property-based program generator: Generate derives a
// random-but-structured appkit program from a seed — a bug template the
// corpus lacks (lost wakeup under load, livelock, ABA, double-checked
// locking) woven together with noise threads doing unrelated
// shared-memory, lock and syscall work. Each generated program carries
// its ground truth: the buggy variant must manifest its template bug
// under some production seed and replay to reproduction, the patched
// variant must never manifest it. Verify runs that pipeline for one
// seed; cmd/presgen sweeps and minimizes.
package scenario

import (
	"context"

	"repro/internal/obs"
)

// Every production run and replay here uses world seed 1 and this step
// bound. Scenario programs are small, so production runs preempt at the
// patterns sweep's loaded 0.05 rather than the corpus default, and a
// generated program's patched variant is held clean over fixedSeeds
// production seeds.
const (
	worldSeed  int64   = 1
	maxSteps   uint64  = 300_000
	preempt    float64 = 0.05
	fixedSeeds         = 60
)

// Config parameterizes generator verification.
type Config struct {
	// Ctx, when non-nil, bounds every execution. Nil means no bound.
	Ctx context.Context
	// Processors models the production machine. Default 4.
	Processors int
	// SeedBudget bounds the production-seed search per generated buggy
	// variant. Default 400.
	SeedBudget int
	// MaxAttempts is the replay budget. Default 1000.
	MaxAttempts int
	// Metrics, when non-nil, receives the pres_scenario_gen_* counters.
	Metrics *obs.Registry
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func (c Config) processors() int {
	if c.Processors <= 0 {
		return 4
	}
	return c.Processors
}

func (c Config) seedBudget() int {
	if c.SeedBudget <= 0 {
		return 400
	}
	return c.SeedBudget
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 1000
	}
	return c.MaxAttempts
}
