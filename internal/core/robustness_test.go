package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sketch"
)

// TestReplayWrongProgramDoesNotCrash: replaying a recording against a
// different program must fail gracefully (divergence / no reproduction),
// never panic or hang.
func TestReplayWrongProgramDoesNotCrash(t *testing.T) {
	rec := recordBuggy(t, orderBugProg(), sketch.SYNC)
	res := Replay(atomBugProg(3), rec, ReplayOptions{
		Feedback:    true,
		MaxAttempts: 20,
		Oracle:      MatchBugID("order-bug"),
	})
	if res.Reproduced {
		t.Fatal("wrong program reproduced the wrong bug id!?")
	}
	if res.Attempts > 20 {
		t.Fatalf("budget ignored: %d", res.Attempts)
	}
}

// TestReplayEmptyRecording: a recording of an empty sketch (BASE) still
// drives a meaningful search.
func TestReplayEmptyRecording(t *testing.T) {
	prog := orderBugProg()
	rec := recordBuggy(t, prog, sketch.BASE)
	if rec.Sketch.Len() != 0 {
		t.Fatal("BASE sketch should be empty")
	}
	res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("order-bug")})
	if !res.Reproduced {
		t.Fatalf("BASE replay failed in %d attempts", res.Attempts)
	}
}

// TestWorldSeedVariation: the pipeline works across different input
// worlds, not just the default seed.
func TestWorldSeedVariation(t *testing.T) {
	prog := atomBugProg(3)
	oracle := MatchBugID("atom-bug")
	verified := 0
	for _, ws := range []int64{1, 2, 7, 42} {
		for seed := int64(0); seed < 600; seed++ {
			rec := Record(prog, Options{
				Scheme:       sketch.SYNC,
				Processors:   4,
				ScheduleSeed: seed,
				WorldSeed:    ws,
				MaxSteps:     200_000,
			})
			f := rec.BugFailure()
			if f == nil || !oracle(f) {
				continue
			}
			res := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle})
			if !res.Reproduced {
				t.Fatalf("world seed %d: not reproduced", ws)
			}
			verified++
			break
		}
	}
	if verified < 2 {
		t.Fatalf("only %d world seeds produced a manifestation", verified)
	}
}

// TestReplayBudgetOne: the tightest budget performs exactly one attempt.
func TestReplayBudgetOne(t *testing.T) {
	prog := orderBugProg()
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{
		Feedback:    true,
		MaxAttempts: 1,
		Oracle:      func(*sched.Failure) bool { return false },
	})
	if res.Attempts != 1 || res.Reproduced {
		t.Fatalf("attempts=%d reproduced=%v", res.Attempts, res.Reproduced)
	}
}

// TestOnAttemptCallback: progress reporting fires once per attempt in
// order, ending with "reproduced".
func TestOnAttemptCallback(t *testing.T) {
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	var seen []string
	res := Replay(prog, rec, ReplayOptions{
		Feedback: true,
		Oracle:   MatchBugID("atom-bug"),
		OnAttempt: func(i int, mode, outcome string) {
			if i != len(seen)+1 {
				t.Errorf("attempt index %d out of order", i)
			}
			seen = append(seen, mode+"/"+outcome)
		},
	})
	if !res.Reproduced {
		t.Fatal("not reproduced")
	}
	if len(seen) != res.Attempts {
		t.Fatalf("callback fired %d times for %d attempts", len(seen), res.Attempts)
	}
	if last := seen[len(seen)-1]; !strings.HasSuffix(last, "/reproduced") {
		t.Fatalf("last outcome = %q", last)
	}
	// No-feedback mode reports too.
	seen = nil
	Replay(prog, rec, ReplayOptions{
		Feedback:    false,
		MaxAttempts: 3,
		Oracle:      func(*sched.Failure) bool { return false },
		OnAttempt:   func(i int, mode, outcome string) { seen = append(seen, mode) },
	})
	if len(seen) != 3 {
		t.Fatalf("no-feedback callback fired %d times", len(seen))
	}
}

// TestOptionDefaults exercises every option normalization path.
func TestOptionDefaults(t *testing.T) {
	o := Options{}
	if o.preempt() != DefaultPreempt || o.processors() != 4 {
		t.Fatal("record defaults wrong")
	}
	o = Options{Preempt: 0.5, Processors: 8}
	if o.preempt() != 0.5 || o.processors() != 8 {
		t.Fatal("record explicit values lost")
	}
	r := ReplayOptions{}
	if r.maxAttempts() != DefaultMaxAttempts {
		t.Fatal("replay defaults wrong")
	}
	if !r.oracle()(&sched.Failure{Reason: sched.ReasonAssert, BugID: "any"}) {
		t.Fatal("default oracle should accept any failure")
	}
	r = ReplayOptions{MaxAttempts: 3}
	if r.maxAttempts() != 3 {
		t.Fatal("replay explicit values lost")
	}
}

// TestReadRecordingCorruptSections exercises the section-reader error
// paths.
func TestReadRecordingCorruptSections(t *testing.T) {
	rec := recordBuggy(t, orderBugProg(), sketch.SYNC)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadRecording(bytes.NewReader(full[:cut]), rec.Options); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A section length beyond sanity must be rejected.
	huge := append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, full...)
	if _, err := ReadRecording(bytes.NewReader(huge), rec.Options); err == nil {
		t.Fatal("huge section length accepted")
	}
}
