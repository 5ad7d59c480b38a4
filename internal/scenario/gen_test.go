package scenario

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/vsys"
)

// TestGenDeterministic is the generator's defining property: the seed
// is the only entropy source. Same seed — byte-identical source and
// ID, and byte-identical recordings; the sequential (Workers:1) replay
// search then walks the same attempt trajectory twice.
func TestGenDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: sources differ:\n%s\nvs\n%s", seed, a.Source(), b.Source())
		}
		if a.ID() != b.ID() {
			t.Fatalf("seed %d: IDs differ: %s vs %s", seed, a.ID(), b.ID())
		}
	}
	// Recordings: two productions of the same generated program under
	// the same options serialize byte for byte.
	g := Generate(3)
	opts := core.Options{Scheme: sketch.SYNC, Processors: 4, Preempt: 0.05, ScheduleSeed: 11, WorldSeed: 1, MaxSteps: 100_000}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		rec := core.Record(Generate(3).Program(), opts)
		if err := rec.Write(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("recordings differ: %d vs %d bytes", bufs[0].Len(), bufs[1].Len())
	}
	// Replay at Workers:1 is the deterministic sequential search: two
	// searches of one recording agree attempt for attempt.
	res := Verify(g, Config{})
	if !res.OK() {
		t.Fatalf("seed 3 does not verify: %v", res.Err)
	}
	rec := core.Record(g.Program(), core.Options{
		Scheme: sketch.SYNC, Processors: res.Procs, Preempt: 0.05,
		ScheduleSeed: res.ManifestSeed, WorldSeed: 1, MaxSteps: 300_000,
	})
	ropts := core.ReplayOptions{Feedback: true, Workers: 1, Oracle: core.MatchBugID(g.BugID)}
	r1 := core.Replay(g.Program(), rec, ropts)
	r2 := core.Replay(g.Program(), rec, ropts)
	if r1.Reproduced != r2.Reproduced || r1.Attempts != r2.Attempts {
		t.Fatalf("sequential searches disagree: (%v,%d) vs (%v,%d)",
			r1.Reproduced, r1.Attempts, r2.Reproduced, r2.Attempts)
	}
}

// TestGenTemplateCoverage: the first 100 seeds exercise every
// template — the sweep sizes in Makefile/presgen rest on this.
func TestGenTemplateCoverage(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		seen[Generate(seed).Template] = true
	}
	for _, tpl := range Templates() {
		if !seen[tpl] {
			t.Errorf("template %s not generated in 100 seeds", tpl)
		}
	}
}

// TestGenSweep: a slice of the full verification sweep (presgen -sweep
// runs the big one) — every generated program's buggy variant
// manifests and reproduces, every patched variant stays clean.
func TestGenSweep(t *testing.T) {
	n := uint64(40)
	if testing.Short() {
		n = 10
	}
	for seed := uint64(0); seed < n; seed++ {
		g := Generate(seed)
		if res := Verify(g, Config{}); !res.OK() {
			t.Errorf("seed %d (%s): %v", seed, g.Template, res.Err)
		}
	}
}

// TestGenGroundTruthExhaustive proves the noise-free generated
// instances by exhaustive enumeration: the buggy variant fails under
// some enumerated schedule (and not all), the fixed variant under none
// within the budget, and every failure has the template's declared
// kind — a detected deadlock for lostload, an assertion with the
// instance's BugID for the rest.
func TestGenGroundTruthExhaustive(t *testing.T) {
	for _, tpl := range Templates() {
		t.Run(tpl, func(t *testing.T) {
			seed := NoiseFreeSeeds[tpl]
			g := Generate(seed)
			if g.Template != tpl || len(g.Noise) != 0 {
				t.Fatalf("seed %d: want noise-free %s, got %s with %d noise threads",
					seed, tpl, g.Template, len(g.Noise))
			}
			explore := func(fixed bool) *sched.ExploreResult {
				prog := g.Program()
				return sched.Explore(func(th *sched.Thread) {
					prog.Run(&appkit.Env{T: th, W: vsys.NewWorld(1), FixBugs: fixed})
				}, sched.ExploreOptions{MaxRuns: 120_000})
			}
			buggy := explore(false)
			if buggy.FailureCount == 0 {
				t.Fatalf("seed %d: buggy variant never fails (%d schedules, complete=%v)",
					seed, buggy.Runs, buggy.Complete)
			}
			if buggy.Complete && buggy.FailureCount == buggy.Runs {
				t.Errorf("seed %d: buggy variant always fails — not schedule-dependent", seed)
			}
			for _, f := range buggy.Failures {
				if tpl == TplLostLoad {
					if f.Reason != sched.ReasonDeadlock {
						t.Errorf("seed %d: failure reason %v, want deadlock", seed, f.Reason)
					}
				} else if f.Reason != sched.ReasonAssert || f.BugID != g.BugID {
					t.Errorf("seed %d: failure %v, want assertion %s", seed, f, g.BugID)
				}
			}
			fixed := explore(true)
			if fixed.FailureCount != 0 {
				t.Errorf("seed %d: fixed variant fails: %v", seed, fixed.Failures)
			}
		})
	}
}

// TestGenMinimize: minimization preserves the failure it is given. A
// synthetic always-failing check (a dead context) must shrink to zero
// noise threads.
func TestGenMinimize(t *testing.T) {
	var g *Gen
	for seed := uint64(0); g == nil; seed++ {
		if c := Generate(seed); len(c.Noise) > 0 {
			g = c
		}
	}
	// An already-cancelled context fails Verify for any program, so the
	// minimizer should strip all noise while keeping the failure.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	min := Minimize(g, Config{Ctx: ctx})
	if len(min.Noise) != 0 {
		t.Fatalf("minimizer kept %d noise threads", len(min.Noise))
	}
	if min.Seed != g.Seed || min.Template != g.Template {
		t.Fatalf("minimizer changed identity: %+v", min)
	}
}

// TestGenStress records 200 generated programs back to back — under
// -race via make check — and requires the scheduler substrate to leak
// no goroutines across the batch.
func TestGenStress(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	before := runtime.NumGoroutine()
	for seed := 0; seed < n; seed++ {
		g := Generate(uint64(seed))
		rec := core.Record(g.Program(), core.Options{
			Scheme:       sketch.SYNC,
			Processors:   4,
			Preempt:      0.05,
			ScheduleSeed: int64(seed),
			WorldSeed:    1,
			MaxSteps:     100_000,
		})
		if rec.Sketch.Len() == 0 {
			t.Fatalf("seed %d: empty sketch", seed)
		}
	}
	// Every execution ends its threads' coroutines before Run returns;
	// give the runtime a moment to retire the last exits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzScenarioGen: any seed generates, records and replays without
// panics, hangs or non-deterministic sources. The checked-in corpus
// seeds one generation of each template plus noise-heavy cases.
func FuzzScenarioGen(f *testing.F) {
	for _, seed := range []uint64{0, 3, 19, 49, 7, 12, 99, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g := Generate(seed)
		if g.Source() != Generate(seed).Source() || g.ID() != Generate(seed).ID() {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		prog := g.Program()
		rec := core.Record(prog, core.Options{
			Scheme:       sketch.SYNC,
			Processors:   2,
			Preempt:      0.05,
			ScheduleSeed: int64(seed % 64),
			WorldSeed:    1,
			MaxSteps:     50_000,
		})
		// Round-trip: a short bounded search must terminate cleanly
		// whatever the recording holds; reproduction is Verify's job.
		res := core.Replay(prog, rec, core.ReplayOptions{
			Feedback:    true,
			MaxAttempts: 5,
			Oracle:      core.MatchBugID(g.BugID),
		})
		if res.Err != nil {
			t.Fatalf("seed %d: replay error: %v", seed, res.Err)
		}
		// The fixed variant records without manifesting the bug.
		fixedRec := core.Record(prog, core.Options{
			Scheme:       sketch.SYNC,
			Processors:   2,
			Preempt:      0.05,
			ScheduleSeed: int64(seed % 64),
			WorldSeed:    1,
			MaxSteps:     50_000,
			FixBugs:      true,
		})
		if bf := fixedRec.BugFailure(); bf != nil && core.MatchBugID(g.BugID)(bf) {
			t.Fatalf("seed %d: fixed variant manifested %s", seed, g.BugID)
		}
	})
}
