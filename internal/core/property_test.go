package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/sketch"
)

// TestPropEveryBuggyRecordingReplays: whichever production seed the
// order bug manifests under, the replayer reproduces it within budget
// and the captured order re-reproduces it. The end-to-end contract,
// property-checked over seeds.
func TestPropEveryBuggyRecordingReplays(t *testing.T) {
	prog := orderBugProg()
	oracle := MatchBugID("order-bug")
	checked := 0
	for seed := int64(0); seed < 2500 && checked < 8; seed++ {
		rec := Record(prog, Options{
			Scheme:       sketch.SYNC,
			Processors:   4,
			ScheduleSeed: seed,
			MaxSteps:     100_000,
		})
		f := rec.BugFailure()
		if f == nil || !oracle(f) {
			continue
		}
		checked++
		res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle})
		if !res.Reproduced {
			t.Fatalf("seed %d: not reproduced", seed)
		}
		out := Reproduce(prog, rec, res.Order)
		if out.Failure == nil || out.Failure.BugID != "order-bug" {
			t.Fatalf("seed %d: captured order lost the bug", seed)
		}
	}
	if checked == 0 {
		t.Fatal("bug never manifested; substrate drifted")
	}
	t.Logf("verified %d independent recordings", checked)
}

// TestPropReplayDeterministic: Replay is a pure function of the
// recording — two invocations give identical attempt counts and orders.
func TestPropReplayDeterministic(t *testing.T) {
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	a := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	b := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	if a.Attempts != b.Attempts || a.Reproduced != b.Reproduced {
		t.Fatalf("replay nondeterministic: %d/%v vs %d/%v", a.Attempts, a.Reproduced, b.Attempts, b.Reproduced)
	}
	if !reflect.DeepEqual(a.Order, b.Order) {
		t.Fatal("captured orders differ between identical replays")
	}
}

// TestPropRecordingSchemeMonotone: on the same execution (same seeds),
// RW's sketch contains at least as many entries as any other scheme's
// and BASE's none — across random seeds.
func TestPropRecordingSchemeMonotone(t *testing.T) {
	prog := atomBugProg(3)
	f := func(seedRaw uint8) bool {
		seed := int64(seedRaw)
		lens := map[sketch.Scheme]int{}
		for _, s := range sketch.All() {
			rec := Record(prog, Options{Scheme: s, Processors: 4, ScheduleSeed: seed, MaxSteps: 100_000})
			lens[s] = rec.Sketch.Len()
		}
		if lens[sketch.BASE] != 0 {
			return false
		}
		for _, s := range []sketch.Scheme{sketch.SYNC, sketch.SYS} {
			if lens[s] > lens[sketch.RW] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropInputsIdenticalAcrossSchemes: the input log does not depend on
// the sketching mechanism (observers cannot perturb execution).
func TestPropInputsIdenticalAcrossSchemes(t *testing.T) {
	prog := orderBugProg()
	base := Record(prog, Options{Scheme: sketch.BASE, ScheduleSeed: 5, MaxSteps: 100_000})
	for _, s := range sketch.All()[1:] {
		rec := Record(prog, Options{Scheme: s, ScheduleSeed: 5, MaxSteps: 100_000})
		if rec.Inputs.Len() != base.Inputs.Len() {
			t.Fatalf("%v: input log length %d != BASE's %d", s, rec.Inputs.Len(), base.Inputs.Len())
		}
		for i := range rec.Inputs.Records {
			a, b := rec.Inputs.Records[i], base.Inputs.Records[i]
			if a.TID != b.TID || a.Call != b.Call || string(a.Data) != string(b.Data) {
				t.Fatalf("%v: input record %d differs", s, i)
			}
		}
	}
}

// TestPropParallelSearchEquivalence: over a randomized sample of corpus
// bugs, the work-stealing search at Workers: 4 reproduces exactly when
// the sequential search does, and every captured FullOrder — sequential
// or parallel — replays to the *identical* failure 100 times out of
// 100. This is the conformance property the pool must not break:
// parallelism buys wall-clock, never reproduction power or fidelity.
func TestPropParallelSearchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bugs := apps.AllBugs()
	rng.Shuffle(len(bugs), func(i, j int) { bugs[i], bugs[j] = bugs[j], bugs[i] })

	sameFailure := func(a, b *sched.Failure) bool {
		return a != nil && b != nil && a.Reason == b.Reason &&
			a.BugID == b.BugID && a.TID == b.TID && a.Step == b.Step
	}

	checked := 0
	for _, b := range bugs {
		if checked >= 4 {
			break
		}
		prog, ok := apps.ProgramForBug(b.ID)
		if !ok {
			t.Fatalf("%s: program missing", b.ID)
		}
		oracle := MatchBugID(b.ID)
		var rec *Recording
		for seed := int64(0); seed < 600; seed++ {
			r := Record(prog, Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 200_000})
			if f := r.BugFailure(); f != nil && oracle(f) {
				rec = r
				break
			}
		}
		if rec == nil {
			continue // too rare for this probe budget; the sample moves on
		}
		checked++

		seq := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle, Workers: 1})
		par := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle, Workers: 4})
		if seq.Reproduced != par.Reproduced {
			t.Fatalf("%s: sequential reproduced=%v but workers=4 reproduced=%v (seq %+v, par %+v)",
				b.ID, seq.Reproduced, par.Reproduced, seq.Stats, par.Stats)
		}
		for name, res := range map[string]*ReplayResult{"sequential": seq, "parallel": par} {
			if !res.Reproduced {
				continue
			}
			for i := 0; i < 100; i++ {
				out := Reproduce(prog, rec, res.Order)
				if !sameFailure(out.Failure, res.Failure) {
					t.Fatalf("%s: %s captured order replayed to %v on iteration %d, want %v",
						b.ID, name, out.Failure, i, res.Failure)
				}
			}
		}
		t.Logf("%s: reproduced=%v seq=%d attempts par=%d attempts", b.ID, seq.Reproduced, seq.Attempts, par.Attempts)
	}
	if checked < 3 {
		t.Fatalf("only %d corpus bugs manifested within the probe budget; sample too thin", checked)
	}
}
