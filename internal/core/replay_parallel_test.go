package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sketch"
)

func TestAttemptComposition(t *testing.T) {
	// With feedback the search alternates directed and random attempts,
	// every random attempt seeded; without feedback (the E5 ablation)
	// nothing is directed and attempt 0 stays the unseeded sticky
	// baseline.
	for idx := 0; idx < 10; idx++ {
		if got, want := directedSlot(true, idx), idx%2 == 0; got != want {
			t.Fatalf("feedback: directedSlot(%d) = %v, want %v", idx, got, want)
		}
		if !seededSlot(true, idx) {
			t.Fatalf("feedback: seededSlot(%d) = false", idx)
		}
		if directedSlot(false, idx) {
			t.Fatalf("no feedback: directedSlot(%d) = true", idx)
		}
		if got, want := seededSlot(false, idx), idx != 0; got != want {
			t.Fatalf("no feedback: seededSlot(%d) = %v, want %v", idx, got, want)
		}
	}
}

func TestReplayParallelMatchesSequential(t *testing.T) {
	// fft-barrier reproduces on the first directed attempt, while later
	// attempts are still in flight at Workers: 4; the first success in
	// canonical order wins, so the whole ReplayResult matches the
	// sequential search bit for bit.
	prog, ok := apps.ProgramForBug("fft-barrier")
	if !ok {
		t.Fatal("fft-barrier not in corpus")
	}
	rec := recordBuggy(t, prog, sketch.SYNC)
	seq := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("fft-barrier"), Workers: 1})
	par := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("fft-barrier"), Workers: 4})
	if !seq.Reproduced {
		t.Fatalf("sequential search failed: %+v", seq.Stats)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel result differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestReplayWorkersOneDeterministic(t *testing.T) {
	// Workers: 1 is the deterministic baseline: dispatch, execution and
	// commit strictly alternate, so the search is a pure function of its
	// inputs — two runs must agree bit for bit, and the zero value must
	// select the same sequential engine.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	a := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1})
	b := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1})
	c := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug")})
	if !a.Reproduced {
		t.Fatalf("search failed: attempts=%d stats=%+v", a.Attempts, a.Stats)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different results:\na: %+v\nb: %+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("zero-value Workers diverged from Workers: 1:\na: %+v\nc: %+v", a, c)
	}
}

func TestReplayParallelReproduces(t *testing.T) {
	// At every Workers count the search is the sequential one, attempt
	// for attempt: the whole ReplayResult equals Workers: 1's, and the
	// captured order replays to the bug. atom-bug reproduces on a random
	// sample; the corpus bug lu-atomicity, on its first buggy SYNC
	// recording, needs a flip.
	atom := atomBugProg(3)
	lu, ok := apps.ProgramForBug("lu-atomicity")
	if !ok {
		t.Fatal("lu-atomicity not in corpus")
	}
	luRec := func() *Recording {
		oracle := MatchBugID("lu-atomicity")
		for seed := int64(0); seed < 3000; seed++ {
			r := Record(lu, trajectoryOptions(seed))
			if f := r.BugFailure(); f != nil && oracle(f) {
				return r
			}
		}
		t.Fatal("lu-atomicity: no buggy seed")
		return nil
	}()
	for _, c := range []struct {
		bug  string
		prog *appkit.Program
		rec  *Recording
	}{
		{"atom-bug", atom, recordBuggy(t, atom, sketch.SYNC)},
		{"lu-atomicity", lu, luRec},
	} {
		seq := Replay(c.prog, c.rec, ReplayOptions{Feedback: true, Oracle: MatchBugID(c.bug), Workers: 1})
		if !seq.Reproduced {
			t.Fatalf("%s: sequential search failed", c.bug)
		}
		for _, w := range []int{2, 4, 8} {
			par := Replay(c.prog, c.rec, ReplayOptions{Feedback: true, Oracle: MatchBugID(c.bug), Workers: w})
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: workers=%d result differs from workers=1:\nseq: %+v\npar: %+v", c.bug, w, seq, par)
			}
			out := Reproduce(c.prog, c.rec, par.Order)
			if out.Failure == nil || out.Failure.BugID != c.bug {
				t.Fatalf("%s: workers=%d captured order lost the bug: %v", c.bug, w, out.Failure)
			}
		}
	}
}

func TestReplayFrontierDriesDeterministically(t *testing.T) {
	// A lock-only deadlock program has no data races, so feedback has
	// nothing to flip: the frontier holds only the root, every directed
	// slot past it falls back to random sampling, and with an oracle
	// that never matches the search must exhaust with FrontierDried set
	// — identically on every run — and the final frontier-depth gauge
	// must read zero.
	prog := deadlockProg()
	rec := recordBuggy(t, prog, sketch.SYNC)
	never := func(*sched.Failure) bool { return false }
	var want *ReplayResult
	for run := 0; run < 2; run++ {
		reg := obs.NewRegistry()
		res := Replay(prog, rec, ReplayOptions{
			Feedback: true, Oracle: never, MaxAttempts: 12, Workers: 1, Metrics: reg,
		})
		if res.Reproduced {
			t.Fatal("oracle never matches but search reproduced")
		}
		if !res.Stats.FrontierDried {
			t.Fatalf("run %d: frontier did not dry: %+v", run, res.Stats)
		}
		if got := reg.Gauge("pres_replay_frontier_depth").Value(); got != 0 {
			t.Fatalf("run %d: final frontier depth gauge = %v, want 0", run, got)
		}
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(want, res) {
			t.Fatalf("frontier-dried search nondeterministic:\na: %+v\nb: %+v", want, res)
		}
	}
	// The same exhaustion at Workers: 4 is the same search.
	res := Replay(prog, rec, ReplayOptions{
		Feedback: true, Oracle: never, MaxAttempts: 12, Workers: 4,
	})
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("workers=4 exhaustion differs from workers=1:\nseq: %+v\npar: %+v", want, res)
	}
}

func TestSearchDedupRaceStress(t *testing.T) {
	// The frontier, the dedup set and the commit path are mutated only
	// under the pool's mutex. Hammer them from several concurrent full
	// searches at Workers: 8 — the -race gate
	// (make stress runs this with -count=2) must stay silent, and every
	// search must behave.
	if testing.Short() {
		t.Skip("stress test")
	}
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			oracle := MatchBugID("atom-bug")
			budget := 0 // full budget for reproducing searches
			if i%2 == 1 {
				// Odd searches never match: they exercise exhaustion
				// and frontier drying concurrently.
				oracle = func(*sched.Failure) bool { return false }
				budget = 60
			}
			res := Replay(prog, rec, ReplayOptions{
				Feedback: true, Oracle: oracle, MaxAttempts: budget,
				Workers: 8,
			})
			if i%2 == 0 && !res.Reproduced {
				done <- fmt.Errorf("search %d failed to reproduce: %+v", i, res.Stats)
				return
			}
			if i%2 == 1 && res.Reproduced {
				done <- fmt.Errorf("search %d reproduced against a never-oracle", i)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
