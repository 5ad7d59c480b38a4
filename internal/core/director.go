package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// flip is one scheduling constraint learned from a failed attempt: delay
// the access that originally went first (pair.First, the hold) until
// the originally-second access (pair.Second, the until) has executed,
// reversing one race outcome. pair is the exact race the parent
// observed, Seq fields included: root-cause reporting prints it when
// the flip's attempt reproduces the bug.
type flip struct {
	pair race.Pair
	// key is the flip's text identity, rendered once by flipSet.plus
	// (see renderKey).
	key string
}

func flipOf(p race.Pair) flip { return flip{pair: p} }

// pairs returns the races a flip set reverses, in order.
func (fs flipSet) pairs() []race.Pair {
	out := make([]race.Pair, len(fs.flips))
	for i, f := range fs.flips {
		out[i] = f.pair
	}
	return out
}

// renderKey renders the flip's text identity, addr:tUntil#n>tHold#n
// (addr in 0x-prefixed hex): the order newDirector enforces a set's
// flips in, the identity a snapshot's released flips are recorded by,
// and a component of the trace's flip_set_id. It builds the text in
// one stack buffer, so the string is its only allocation.
func (f flip) renderKey() string {
	var buf [96]byte
	b := append(buf[:0], "0x"...)
	b = strconv.AppendUint(b, f.pair.First.Addr, 16)
	b = append(b, ":t"...)
	b = strconv.AppendInt(b, int64(f.pair.Second.TID), 10)
	b = append(b, '#')
	b = strconv.AppendUint(b, f.pair.Second.TCount, 10)
	b = append(b, ">t"...)
	b = strconv.AppendInt(b, int64(f.pair.First.TID), 10)
	b = append(b, '#')
	b = strconv.AppendUint(b, f.pair.First.TCount, 10)
	return string(b)
}

// flipEnd is one access of a flip's pair by its (thread, count)
// identity.
type flipEnd struct {
	tid   trace.TID
	count uint64
}

// flipPairKey identifies the unordered access pair a flip constrains:
// the address plus both ends in numeric (tid, count) order, so a flip
// and its reversal share a key.
type flipPairKey struct {
	addr   uint64
	lo, hi flipEnd
}

// pairKey identifies the unordered access pair a flip constrains. A
// flip set constrains each pair at most once: otherwise the search
// oscillates, flipping the same race back and forth as each attempt
// re-observes it in the direction the previous flip produced.
func (f flip) pairKey() flipPairKey {
	a := flipEnd{tid: f.pair.First.TID, count: f.pair.First.TCount}
	b := flipEnd{tid: f.pair.Second.TID, count: f.pair.Second.TCount}
	if b.tid < a.tid || (b.tid == a.tid && b.count < a.count) {
		a, b = b, a
	}
	return flipPairKey{addr: f.pair.First.Addr, lo: a, hi: b}
}

// flipSet is an ordered set of flips defining one point in the search
// tree. Order matters only for the id; enforcement is simultaneous.
type flipSet struct {
	flips []flip
}

// constrains reports whether fs already constrains f's access pair, in
// either direction.
func (fs flipSet) constrains(f flip) bool {
	pk := f.pairKey()
	for _, g := range fs.flips {
		if g.pairKey() == pk {
			return true
		}
	}
	return false
}

// plus returns a copy of fs extended by f, with f's key rendered.
func (fs flipSet) plus(f flip) flipSet {
	f.key = f.renderKey()
	flips := make([]flip, len(fs.flips)+1)
	copy(flips, fs.flips)
	flips[len(fs.flips)] = f
	return flipSet{flips: flips}
}

// id is the trace's flip_set_id: the flip keys in discovery order,
// each after a "|". Only an attached trace reads it, so it is built
// there and nowhere else.
func (fs flipSet) id() string {
	var b strings.Builder
	for _, f := range fs.flips {
		b.WriteByte('|')
		b.WriteString(f.key)
	}
	return b.String()
}

// director is both the replay Strategy and an Observer: it enforces the
// recorded sketch order, holds threads per the flip set, explores the
// remaining freedom with a deterministic (or seeded-random, for the
// no-feedback ablation) policy, and detects divergence from the sketch.
//
// The scheduler asks for a pick at every scheduling point, so every
// point near a flip's hold window is one where a hold can engage or
// release. Declared batches arrive as candidates with Run > 1; the
// director never consumes the declaration, so batch points stay
// individually interleavable under replay.
type director struct {
	scheme  sketch.Scheme
	entries []trace.SketchEntry
	k       int // next sketch entry to honor

	flips    []flip
	flipDone []bool
	executed perThread[uint64] // each thread's latest TCount

	rng  *rand.Rand         // nil => deterministic sticky policy
	vt   perThread[float64] // virtual time for the random policy
	last trace.TID          // thread granted at the previous pick

	// exhaustStep records the global step at which the final sketch
	// entry was consumed (0 while unconsumed): the recorded horizon.
	// The production run died at its last sketch point, so the bug
	// lives near this step — feedback ranks races by proximity to it.
	exhaustStep uint64

	// soft is set once a flip engages (its hold point is reached): the
	// schedule has deliberately deviated from the recorded execution, so
	// from that point the sketch is a soft guide rather than a hard
	// constraint — exactly PRES's "replay to the deviation point, then
	// explore". Before engagement the sketch is enforced strictly.
	soft bool

	diverged    bool
	divergeNote string
}

// perThread is a per-thread value indexed by TID (the scheduler hands
// TIDs out densely); a thread never stored reads as zero.
type perThread[T uint64 | float64] []T

func (p perThread[T]) at(tid trace.TID) T {
	if int(tid) < len(p) {
		return p[tid]
	}
	return 0
}

func (p *perThread[T]) set(tid trace.TID, v T) {
	for int(tid) >= len(*p) {
		*p = append(*p, 0)
	}
	(*p)[tid] = v
}

func newDirector(scheme sketch.Scheme, entries []trace.SketchEntry, fs flipSet, rng *rand.Rand) *director {
	// Enforce flips in canonical (key) order, not discovery order: the
	// only order-sensitive operation is releaseOneFlip's first-match
	// scan, and sorting makes the attempt a function of the flip *set* —
	// the same identity the dedup set keys on. Keys within a set are
	// distinct (constrains rejects a repeated pair), so the order is
	// total and independent of the sort algorithm.
	flips := append([]flip(nil), fs.flips...)
	slices.SortFunc(flips, func(a, b flip) int { return strings.Compare(a.key, b.key) })
	return &director{
		scheme:   scheme,
		entries:  entries,
		flips:    flips,
		flipDone: make([]bool, len(flips)),
		rng:      rng,
	}
}

// Pick implements sched.Strategy.
func (d *director) Pick(view *sched.PickView) (trace.TID, bool) {
	// Sticky fast path: once the sketch is fully consumed and no flip
	// is still pending, every candidate is grantable and unheld, so the
	// deterministic sticky policy reduces to "keep the last thread
	// running if it can" — answered by binary search over the
	// TID-sorted view. The tail of a directed attempt (usually the bulk
	// of its points) pays one PickView.Find instead of a candidate scan.
	if d.rng == nil && d.k >= len(d.entries) && !d.anyFlipPending() {
		if c, ok := view.Find(d.last); ok {
			d.last = c.TID
			return c.TID, true
		}
	}
	// Enforce the flip set: hold an access whose identity matches a
	// pending flip until its partner has executed. The moment a flip
	// engages, the schedule has deviated from the recorded execution on
	// purpose, so sketch enforcement switches to soft for the rest of
	// the attempt (PRES's "replay to the deviation point, then explore")
	// and the candidates are scanned again under the relaxed rule so the
	// partner thread can actually run. A flip that still wedges the
	// schedule (every candidate held, its partner transitively blocked
	// on a held thread) is released as a last resort and the candidates
	// scanned again; either way the attempt remains a deterministic
	// function of the flip set.
	for {
		choice, expected, held, ok := d.scan(view)
		switch {
		case !ok:
			return trace.NoTID, false
		case held >= 0 && !d.soft:
			d.soft = true
		case choice == nil:
			d.flipDone[held] = true
		default:
			if d.rng != nil {
				d.vt.set(choice.TID, d.vt.at(choice.TID)+float64(choice.Cost)*(0.85+0.3*d.rng.Float64()))
			}
			d.last = choice.TID
			if choice == expected {
				d.k++
				if d.k == len(d.entries) {
					d.exhaustStep = view.Step + 1
				}
			}
			return choice.TID, true
		}
	}
}

// scan is Pick's single pass over the candidates. It classifies each
// under the current sketch rule — strictly before any flip engages
// (out-of-turn sketch ops are held, impossible sketches diverge), and
// softly after (everything may run, the expected entry is merely
// preferred via k-advancement) — checks it against the pending flips,
// and applies the policy to those left as it goes. It returns the
// policy's choice (nil if every grantable candidate is held), the
// candidate the next sketch entry expects (nil if none), and the first
// pending flip holding the first held candidate (-1 if none held). ok
// is false when the attempt diverged.
func (d *director) scan(view *sched.PickView) (choice, expected *sched.Candidate, held int, ok bool) {
	held = -1
	grantable, sticky := false, false
	for i := range view.Candidates {
		c := &view.Candidates[i]
		if d.scheme.Records(c.Kind) && d.k < len(d.entries) {
			exp := d.entries[d.k]
			switch {
			case c.TID == exp.TID && c.Kind == exp.Kind && c.Obj == exp.Obj:
				expected = c
			case d.soft:
				// Past the deviation point the recorded order is only
				// a guide: out-of-turn sketch ops may run.
			case c.TID == exp.TID:
				// The thread owed the next sketch point reached a
				// different one: its program order can never produce
				// the recorded entry any more.
				d.diverged = true
				d.divergeNote = fmt.Sprintf("sketch[%d]=%v but t%d is at %v obj=%#x",
					d.k, exp, c.TID, c.Kind, c.Obj)
				return nil, nil, -1, false
			default:
				continue // a sketch-kind op out of recorded turn: hold
			}
		}
		grantable = true
		if f := d.holdingFlip(c); f >= 0 {
			if held < 0 {
				held = f
			}
			continue
		}
		// Random exploration (the no-feedback ablation) is time-weighted
		// like the production scheduler, so window-hitting odds match a
		// real stress re-run rather than a uniform event lottery. The
		// deterministic sticky policy keeps running the thread that ran
		// last until it blocks or the sketch/flips hold it. Coarse
		// schedules resemble the production run, so the baseline
		// attempt does not trip unrelated race windows the production
		// run never opened; context switches happen exactly where the
		// sketch or a flip forces them. When the last thread cannot
		// run, the least-executed candidate does, so no thread is
		// starved. Ties go to the first candidate in TID order.
		switch {
		case choice == nil:
			choice, sticky = c, c.TID == d.last
		case d.rng != nil:
			if d.vt.at(c.TID) < d.vt.at(choice.TID) {
				choice = c
			}
		case sticky:
		case c.TID == d.last:
			choice, sticky = c, true
		case d.executed.at(c.TID) < d.executed.at(choice.TID):
			choice = c
		}
	}
	if !grantable {
		d.diverged = true
		d.divergeNote = fmt.Sprintf("no thread can reach sketch[%d]", d.k)
		return nil, nil, -1, false
	}
	return choice, expected, held, true
}

// anyFlipPending reports whether a flip could still hold a candidate.
func (d *director) anyFlipPending() bool {
	for i := range d.flips {
		if !d.flipDone[i] {
			return true
		}
	}
	return false
}

// holdingFlip returns the first pending flip whose hold is c's next
// access, or -1.
func (d *director) holdingFlip(c *sched.Candidate) int {
	if !c.Kind.IsMemory() {
		return -1
	}
	next := d.executed.at(c.TID) + 1
	for i, f := range d.flips {
		if hold := f.pair.First; !d.flipDone[i] && c.TID == hold.TID && next == hold.TCount && c.Obj == hold.Addr {
			return i
		}
	}
	return -1
}

// OnEvent implements sched.Observer: it tracks per-thread progress so
// flip identities ((tid, tcount) pairs) can be matched, and releases
// flips whose partner access has executed.
func (d *director) OnEvent(ev trace.Event) uint64 {
	d.executed.set(ev.TID, ev.TCount)
	for i, f := range d.flips {
		if !d.flipDone[i] && ev.TID == f.pair.Second.TID && ev.TCount >= f.pair.Second.TCount {
			d.flipDone[i] = true
		}
	}
	return 0
}

// orderCapture records the full grant order of an attempt so a
// successful reproduction can be replayed verbatim forever after.
type orderCapture struct {
	order []trace.TID
}

func (o *orderCapture) OnEvent(ev trace.Event) uint64 {
	o.order = append(o.order, ev.TID)
	return 0
}

func (o *orderCapture) full() *trace.FullOrder {
	return &trace.FullOrder{Order: o.order}
}
