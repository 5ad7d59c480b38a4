package core

import (
	"errors"
	"fmt"

	"repro/internal/sketch"
)

// Advise turns a failed replay search's statistics into actionable
// guidance for the developer: which knob — sketch density, attempt
// budget, window retention — is the binding constraint. This mirrors
// the deployment guidance of the paper's discussion section: pick the
// cheapest sketch that still reproduces your failures, and densify only
// when the replayer tells you it is starving.
func Advise(rec *Recording, res *ReplayResult) string {
	if res.Reproduced {
		return "reproduced; no advice needed"
	}
	if errors.Is(res.Err, ErrCheckpointMismatch) {
		return fmt.Sprintf(
			"re-executing the prefix under schedule seed %d missed the recording's checkpoint, so every attempt "+
				"would: replay with the production run's -seed (presrun prints it on its \"replay with:\" line) and "+
				"its -procs, -scale and -world-seed; Recording.Validate cannot catch this, since the recording "+
				"does not store the seed", rec.Options.ScheduleSeed)
	}
	total := res.Stats.Divergences + res.Stats.CleanRuns + res.Stats.OtherFailures
	if total == 0 {
		return "no attempts ran; check the recording with Validate and raise MaxAttempts"
	}
	switch {
	case res.Stats.Divergences*2 > total:
		// The sketch cannot be honored: the recording and program
		// disagree, or the sketch pins a dimension the program no
		// longer reproduces deterministically.
		return fmt.Sprintf(
			"%d/%d attempts diverged from the sketch: verify the program and inputs match the recording "+
				"(Recording.Validate), or re-record — a divergence-dominated search almost never converges",
			res.Stats.Divergences, total)
	case res.Stats.OtherFailures*2 > total:
		return fmt.Sprintf(
			"%d/%d attempts manifested a different failure first: diagnose that bug (drop the Oracle filter) "+
				"or patch it and re-record, since it shadows the target",
			res.Stats.OtherFailures, total)
	case rec.Scheme == sketch.BASE || rec.Scheme == sketch.SYS || rec.Scheme == sketch.SYNC:
		denser := "SYNC"
		switch rec.Scheme {
		case sketch.SYNC, sketch.SYS:
			denser = "FUNC or BB"
		}
		return fmt.Sprintf(
			"attempts run clean but the failure stays out of reach (%d races seen on feedback-directed attempts): "+
				"the unrecorded space is too large for this sketch — re-record with a denser mechanism (%s) "+
				"or raise MaxAttempts beyond %d",
			res.Stats.RacesSeen, denser, res.Attempts)
	default:
		return fmt.Sprintf(
			"search exhausted %d attempts under a dense sketch: raise MaxAttempts, or "+
				"check that the bug's oracle actually matches the production failure", res.Attempts)
	}
}
