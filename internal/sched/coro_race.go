//go:build race

package sched

// pull is coro.go's iter.Pull with a goroutine and two channels, for
// race-instrumented builds only. The Go 1.24 race runtime never
// releases the detector state of a finished iter.Pull coroutine
// (coroexit skips racegoend): about 5.7 KiB per coroutine, so the
// exhaustive enumerations under go test -race, which start hundreds of
// thousands of threads, ran out of memory. A goroutine that returns
// releases its state. The scheduler above pull is the same code in
// both builds, and channel operations order the handoffs for the race
// detector as coroutine switches do.
//
// seq must not panic: runThread recovers every thread's panic.
func pull(seq func(yield func(announcement) bool)) (next func() (announcement, bool), stop func()) {
	type pulled struct {
		a  announcement
		ok bool
	}
	resume := make(chan bool) // true: run to the next yield; false: unwind
	out := make(chan pulled)  // a yield, or {ok: false} when seq returned
	var done, stopped bool
	yield := func(a announcement) bool {
		if stopped {
			return false
		}
		out <- pulled{a, true}
		return <-resume
	}
	go func() {
		if <-resume {
			seq(yield)
		}
		out <- pulled{}
	}()
	next = func() (announcement, bool) {
		if done {
			return announcement{}, false
		}
		resume <- true
		p := <-out
		done = !p.ok
		return p.a, p.ok
	}
	stop = func() {
		if done {
			return
		}
		done, stopped = true, true
		resume <- false
		<-out
	}
	return next, stop
}
