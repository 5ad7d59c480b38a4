package core

import (
	"repro/internal/appkit"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Simplify reduces a captured full order to an equivalent schedule with
// as few context switches as possible while still reproducing the same
// failure. The schedule the replayer finds is an artifact of its search
// and often interleaves threads where it does not have to; the
// simplified schedule shows a developer the *minimal* interleaving
// structure — typically just the few switches that constitute the bug.
//
// The algorithm greedily coalesces runs: for each context switch in the
// current schedule, it tries to extend the previous thread's run through
// the following run (deferring the preempted ops), verifies by
// re-execution that the failure still reproduces identically, and keeps
// the change if so. This is the schedule-reduction idea of
// CHESS-style systematic testers applied to PRES's captured orders; the
// paper's diagnosis story motivates it (a reproduced bug is consumed by
// a human next).
//
// The failure to preserve is the one the input order itself produces:
// the first re-execution replays it unchanged and takes its bug id as
// the target, so a simplification never trades one bug for another
// hosted by the same program. Nothing is read from rec.Result, which a
// recording read back from its serialized form does not carry.
//
// Simplify performs at most budget re-executions (0 means
// DefaultSimplifyBudget), the target-fixing one included, and returns
// the best schedule found together with the number of re-executions
// spent. The input order is not modified.
func Simplify(prog *appkit.Program, rec *Recording, order *trace.FullOrder, budget int) (*trace.FullOrder, int) {
	if budget <= 0 {
		budget = DefaultSimplifyBudget
	}
	oracle := func(f *sched.Failure) bool { return f != nil && f.IsBug() }
	spent := 1
	if f := Reproduce(prog, rec, order).Failure; f != nil && f.IsBug() && f.BugID != "" {
		id := f.BugID
		oracle = func(f *sched.Failure) bool {
			return f != nil && f.IsBug() && (f.BugID == id || f.Reason == sched.ReasonDeadlock)
		}
	}

	cur := append([]trace.TID(nil), order.Order...)

	// Repeatedly sweep the schedule, trying to eliminate the first
	// removable switch of each run boundary; stop when a full sweep
	// makes no progress or the budget is gone.
	progress := true
	for progress && spent < budget {
		progress = false
		i := 0
		for i < len(cur) && spent < budget {
			j := switchAfter(cur, i)
			if j < 0 {
				break
			}
			// Runs: [..i..j-1] by thread A, [j..k-1] by thread B.
			k := switchAfter(cur, j)
			if k < 0 {
				k = len(cur)
			}
			if next := nextRunOf(cur, cur[j-1], j); next >= 0 {
				// Candidate: move A's next run to directly follow this
				// one, deferring B's run (and anything between) after.
				cand := spliceRuns(cur, j, next)
				spent++
				if replaysSame(prog, rec, cand, oracle) {
					cur = cand
					progress = true
					continue // retry from the same position
				}
			}
			i = j
		}
	}
	return &trace.FullOrder{Order: cur}, spent
}

// DefaultSimplifyBudget bounds re-executions during simplification.
const DefaultSimplifyBudget = 200

// switchAfter returns the index of the first context switch at or after
// i (the first index whose thread differs from cur[i]'s run), or -1.
func switchAfter(cur []trace.TID, i int) int {
	if i >= len(cur) {
		return -1
	}
	t := cur[i]
	for j := i + 1; j < len(cur); j++ {
		if cur[j] != t {
			return j
		}
	}
	return -1
}

// nextRunOf returns the start index of thread t's next run at or after
// i, or -1.
func nextRunOf(cur []trace.TID, t trace.TID, i int) int {
	for j := i; j < len(cur); j++ {
		if cur[j] == t {
			return j
		}
	}
	return -1
}

// spliceRuns moves the run of cur[next...] (a maximal same-thread run)
// to position j, shifting the elements in between right.
func spliceRuns(cur []trace.TID, j, next int) []trace.TID {
	t := cur[next]
	end := next
	for end < len(cur) && cur[end] == t {
		end++
	}
	out := make([]trace.TID, 0, len(cur))
	out = append(out, cur[:j]...)
	out = append(out, cur[next:end]...)
	out = append(out, cur[j:next]...)
	out = append(out, cur[end:]...)
	return out
}

// replaysSame re-executes prog under the candidate order and reports
// whether it reproduces an acceptable failure.
func replaysSame(prog *appkit.Program, rec *Recording, cand []trace.TID, oracle Oracle) bool {
	f := Reproduce(prog, rec, &trace.FullOrder{Order: cand}).Failure
	return f != nil && f.IsBug() && oracle(f)
}

// Switches counts the context switches in a schedule — the metric
// Simplify minimizes.
func Switches(order *trace.FullOrder) int {
	n := 0
	for i := 1; i < len(order.Order); i++ {
		if order.Order[i] != order.Order[i-1] {
			n++
		}
	}
	return n
}
