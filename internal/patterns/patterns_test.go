package patterns

import (
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/vsys"
)

func exploreVariant(p Pattern, fixed bool, maxRuns int) *sched.ExploreResult {
	prog := p.Build()
	return sched.Explore(func(t *sched.Thread) {
		prog.Run(&appkit.Env{T: t, W: vsys.NewWorld(1), FixBugs: fixed})
	}, sched.ExploreOptions{MaxRuns: maxRuns})
}

// TestCatalogGroundTruth is the catalog's defining property, checked by
// exhaustive enumeration: every buggy variant fails under some schedule
// and every fixed variant under none. Patterns whose space fits the
// budget get a complete proof; the rest (the 3-philosopher ring) get a
// bounded verification over the enumerated prefix.
func TestCatalogGroundTruth(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			const budget = 120_000
			buggy := exploreVariant(p, false, budget)
			if buggy.FailureCount == 0 {
				t.Fatalf("buggy variant never fails (%d schedules, complete=%v)", buggy.Runs, buggy.Complete)
			}
			if buggy.Complete && buggy.FailureCount == buggy.Runs {
				t.Fatalf("buggy variant always fails — not schedule-dependent")
			}
			fixed := exploreVariant(p, true, budget)
			if fixed.FailureCount != 0 {
				t.Fatalf("fixed variant fails: %v", fixed)
			}
			kind := "proved"
			if !buggy.Complete || !fixed.Complete {
				kind = "bounded"
			}
			t.Logf("%s: buggy %d/%d schedules fail; fixed 0/%d",
				kind, buggy.FailureCount, buggy.Runs, fixed.Runs)
		})
	}
}

// TestCatalogFailureKinds: deadlock/hang patterns must manifest as
// deadlocks, the rest as assertions with the declared bug id.
func TestCatalogFailureKinds(t *testing.T) {
	for _, p := range All() {
		prog := p.Build()
		res := sched.Explore(func(t *sched.Thread) {
			prog.Run(&appkit.Env{T: t, W: vsys.NewWorld(1)})
		}, sched.ExploreOptions{MaxRuns: 300_000, StopAtFirstFailure: true})
		if len(res.Failures) == 0 {
			t.Fatalf("%s: no failures", p.Name)
		}
		f := res.Failures[0]
		switch p.Class {
		case "deadlock", "hang":
			if f.Reason != sched.ReasonDeadlock {
				t.Errorf("%s: reason = %v", p.Name, f.Reason)
			}
		default:
			if f.Reason != sched.ReasonAssert || f.BugID != p.BugID {
				t.Errorf("%s: failure = %v", p.Name, f)
			}
		}
	}
}

// generatedShapes names the scenario generator's noise-free template
// instances by the catalog names those shapes are known by. The
// generator is their only implementation; TestGenGroundTruthExhaustive
// proves their ground truth.
var generatedShapes = []struct{ name, tpl string }{
	{"lost-wakeup-load", scenario.TplLostLoad},
	{"livelock", scenario.TplLivelock},
	{"aba", scenario.TplABA},
	{"double-checked-locking", scenario.TplDCL},
}

// TestCatalogReplays: PRES reproduces every pattern, and every
// generator template's noise-free instance, from a SYNC sketch.
func TestCatalogReplays(t *testing.T) {
	pats := All()
	for _, s := range generatedShapes {
		g := scenario.Generate(scenario.NoiseFreeSeeds[s.tpl])
		pats = append(pats, Pattern{Name: s.name, BugID: g.BugID, Build: g.Program})
	}
	for _, p := range pats {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := p.Build()
			oracle := core.MatchBugID(p.BugID)
			// One-shot windows in tiny programs need a contended
			// machine to manifest (a thread stranded mid-window by
			// preemption), so the production sweep covers processor
			// counts down to a loaded uniprocessor.
			var rec *core.Recording
			for _, procs := range []int{4, 1, 2} {
				for seed := int64(0); seed < 4000 && rec == nil; seed++ {
					r := core.Record(prog, core.Options{
						Scheme:       sketch.SYNC,
						Processors:   procs,
						Preempt:      0.05,
						ScheduleSeed: seed,
						WorldSeed:    1,
						MaxSteps:     100_000,
					})
					if f := r.BugFailure(); f != nil && oracle(f) {
						rec = r
					}
				}
				if rec != nil {
					break
				}
			}
			if rec == nil {
				t.Fatalf("%s: no buggy production seed across processor counts", p.Name)
			}
			res := core.Replay(prog, rec, core.ReplayOptions{Feedback: true, Oracle: oracle})
			if !res.Reproduced {
				t.Fatalf("not reproduced: %d attempts %+v", res.Attempts, res.Stats)
			}
			out := core.Reproduce(prog, rec, res.Order)
			if out.Failure == nil || !out.Failure.IsBug() {
				t.Fatalf("captured order lost the bug: %v", out.Failure)
			}
			t.Logf("reproduced in %d attempts", res.Attempts)
		})
	}
}

func TestCatalogLookup(t *testing.T) {
	if len(All()) != 8 {
		t.Fatalf("catalog has %d patterns", len(All()))
	}
	p, ok := Get("abba-deadlock")
	if !ok || !strings.Contains(p.BugID, "deadlock") {
		t.Fatal("lookup broken")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown pattern found")
	}
}
