package core

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sketch"
)

func TestAdviseBranches(t *testing.T) {
	rec := &Recording{Scheme: sketch.SYNC}
	okRes := &ReplayResult{Reproduced: true}
	if !strings.Contains(Advise(rec, okRes), "no advice") {
		t.Fatal("reproduced case")
	}

	empty := &ReplayResult{}
	if !strings.Contains(Advise(rec, empty), "no attempts") {
		t.Fatal("empty case")
	}

	div := &ReplayResult{Attempts: 10, Stats: ReplayStats{Divergences: 8, CleanRuns: 2}}
	if !strings.Contains(Advise(rec, div), "diverged") {
		t.Fatal("divergence case")
	}

	other := &ReplayResult{Attempts: 10, Stats: ReplayStats{OtherFailures: 8, CleanRuns: 2}}
	if !strings.Contains(Advise(rec, other), "different failure") {
		t.Fatal("shadowing case")
	}

	clean := &ReplayResult{Attempts: 10, Stats: ReplayStats{CleanRuns: 10, RacesSeen: 50}}
	if a := Advise(rec, clean); !strings.Contains(a, "denser") || !strings.Contains(a, "50 races seen on feedback-directed attempts") {
		t.Fatalf("sparse-sketch case: %s", a)
	}

	dense := &Recording{Scheme: sketch.RW}
	if !strings.Contains(Advise(dense, clean), "MaxAttempts") {
		t.Fatal("dense-sketch case")
	}
}

func TestAdviseEndToEnd(t *testing.T) {
	// An impossible oracle exhausts the budget with clean runs; the
	// advice should point at density/budget.
	prog := orderBugProg()
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{
		Feedback:    true,
		MaxAttempts: 6,
		Oracle:      func(*sched.Failure) bool { return false },
	})
	if res.Reproduced {
		t.Fatal("impossible oracle reproduced")
	}
	if Advise(rec, res) == "" {
		t.Fatal("no advice for failed search")
	}
}
