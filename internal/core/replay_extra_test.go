package core

import (
	"testing"

	"repro/internal/sketch"
)

// TestSketchTailReplay: reproduction still works from a truncated
// sketch tail (soft guidance), the bounded-storage deployment mode.
func TestSketchTailReplay(t *testing.T) {
	prog := orderBugProg()
	rec := recordBuggy(t, prog, sketch.SYNC)
	res := Replay(prog, rec, ReplayOptions{
		Feedback:   true,
		SketchTail: 3,
		Oracle:     MatchBugID("order-bug"),
	})
	if !res.Reproduced {
		t.Fatalf("tail replay failed: %d attempts %+v", res.Attempts, res.Stats)
	}
	t.Logf("tail-of-3 replay reproduced in %d attempts", res.Attempts)
}
