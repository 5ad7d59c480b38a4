package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sketch"
)

// VerifyResult is one generated program's ground-truth check.
type VerifyResult struct {
	Seed     uint64
	Template string
	ID       string
	// Procs/ManifestSeed locate the production run that manifested the
	// template bug (ManifestSeed -1: never manifested).
	Procs        int
	ManifestSeed int64
	// Attempts/Reproduced describe the replay search on that recording.
	Attempts   int
	Reproduced bool
	// FixedClean reports that the patched variant produced no failure
	// across the fixed-seed sweep.
	FixedClean bool
	Err        error
}

// OK reports whether the generated program met its ground truth end to
// end: buggy manifested and reproduced, fixed stayed clean.
func (r VerifyResult) OK() bool {
	return r.Err == nil && r.Reproduced && r.FixedClean
}

// Verify runs the PRES pipeline over one generated program: sweep
// production seeds until the buggy variant manifests its template bug,
// replay the recording to reproduction, re-execute the captured order,
// then hold the patched variant clean over the fixed-seed sweep — the
// same record/replay ground-truth discipline the corpus tests pin,
// applied to a program that did not exist until this seed.
func Verify(g *Gen, cfg Config) VerifyResult {
	res := VerifyResult{Seed: g.Seed, Template: g.Template, ID: g.ID(), ManifestSeed: -1}
	if m := cfg.Metrics; m != nil {
		m.Counter("pres_scenario_gen_programs_total", "template", g.Template).Inc()
	}
	prog := g.Program()
	oracle := core.MatchBugID(g.BugID)
	opts := func(procs int, seed int64, fix bool) core.Options {
		return core.Options{
			Scheme:       sketch.SYNC,
			Processors:   procs,
			Preempt:      preempt,
			ScheduleSeed: seed,
			WorldSeed:    worldSeed,
			MaxSteps:     maxSteps,
			FixBugs:      fix,
			Metrics:      cfg.Metrics,
		}
	}
	// One-shot windows in small programs need a contended machine, so
	// the sweep covers processor counts down to a loaded uniprocessor
	// (the same ladder the pattern catalog uses).
	var rec *core.Recording
	for _, procs := range []int{cfg.processors(), 1, 2} {
		for seed := int64(0); seed < int64(cfg.seedBudget()); seed++ {
			if err := cfg.ctx().Err(); err != nil {
				res.Err = err
				return res
			}
			r := core.RecordContext(cfg.ctx(), prog, opts(procs, seed, false))
			if f := r.BugFailure(); f != nil && oracle(f) {
				rec, res.Procs, res.ManifestSeed = r, procs, seed
				break
			}
		}
		if rec != nil {
			break
		}
	}
	if rec == nil {
		res.Err = fmt.Errorf("scenario: %s (%s) never manifested %s in %d seeds/procs",
			g.name(), g.Template, g.BugID, cfg.seedBudget())
		return res
	}
	rep := core.ReplayContext(cfg.ctx(), prog, rec, core.ReplayOptions{
		Feedback:    true,
		MaxAttempts: cfg.maxAttempts(),
		Oracle:      oracle,
		Metrics:     cfg.Metrics,
	})
	res.Attempts, res.Reproduced = rep.Attempts, rep.Reproduced
	if !rep.Reproduced {
		res.Err = fmt.Errorf("scenario: %s not reproduced in %d attempts", g.name(), rep.Attempts)
		return res
	}
	if out := core.ReproduceContext(cfg.ctx(), prog, rec, rep.Order); out.Failure == nil || !oracle(out.Failure) {
		res.Err = fmt.Errorf("scenario: %s captured order lost the bug: %v", g.name(), out.Failure)
		return res
	}
	if m := cfg.Metrics; m != nil {
		m.Counter("pres_scenario_gen_reproduced_total", "template", g.Template).Inc()
	}
	// Ground truth, other direction: the patched variant must produce
	// no failure at all — the template fix really is the fix, and the
	// noise threads really are noise.
	res.FixedClean = true
	for seed := int64(0); seed < fixedSeeds; seed++ {
		if err := cfg.ctx().Err(); err != nil {
			res.Err = err
			return res
		}
		r := core.RecordContext(cfg.ctx(), prog, opts(cfg.processors(), seed, true))
		if f := r.Result.Failure; f != nil {
			res.FixedClean = false
			res.Err = fmt.Errorf("scenario: %s fixed variant fails at seed %d: %v", g.name(), seed, f)
			return res
		}
	}
	return res
}

// Minimize shrinks a failing generated program: starting from a Gen
// whose Verify did not pass, it repeatedly drops noise threads and
// truncates noise ops as long as verification keeps failing, and
// returns the smallest still-failing Gen. Use it to turn a failing
// sweep seed into a readable repro (presgen -minimize).
func Minimize(g *Gen, cfg Config) *Gen {
	cur := g.clone()
	if Verify(cur, cfg).OK() {
		return cur // nothing to minimize
	}
	for changed := true; changed; {
		changed = false
		// Drop whole noise threads.
		for i := 0; i < len(cur.Noise); i++ {
			cand := cur.clone()
			cand.Noise = append(cand.Noise[:i], cand.Noise[i+1:]...)
			if !Verify(cand, cfg).OK() {
				cur, changed = cand, true
				break
			}
		}
		if changed {
			continue
		}
		// Halve the op tail of each remaining thread.
		for i := 0; i < len(cur.Noise); i++ {
			if len(cur.Noise[i].Ops) < 2 {
				continue
			}
			cand := cur.clone()
			cand.Noise[i].Ops = cand.Noise[i].Ops[:len(cand.Noise[i].Ops)/2]
			if !Verify(cand, cfg).OK() {
				cur, changed = cand, true
				break
			}
		}
	}
	return cur
}
