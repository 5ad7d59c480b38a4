//go:build go1.23 && !race

package sched

import "iter"

// pull makes seq a coroutine: next resumes it until its next yield or
// its return, and stop makes its pending yield return false. iter.Pull
// (Go 1.23) is the one thing here that needs a newer toolchain than
// go.mod names; this file's build constraint lets the module keep its go
// line. Race-instrumented builds use coro_race.go instead.
func pull(seq func(yield func(announcement) bool)) (next func() (announcement, bool), stop func()) {
	return iter.Pull(seq)
}
