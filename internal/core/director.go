package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// flip is one scheduling constraint learned from a failed attempt: delay
// the access that originally went first until the originally-second
// access has executed, reversing one race outcome.
type flip struct {
	holdTID   trace.TID
	holdCount uint64
	addr      uint64
	untilTID  trace.TID
	untilCnt  uint64
	// pair is the race this flip reverses, kept for root-cause
	// reporting when the flip's attempt reproduces the bug.
	pair race.Pair
}

func flipOf(p race.Pair) flip {
	return flip{
		holdTID:   p.First.TID,
		holdCount: p.First.TCount,
		addr:      p.First.Addr,
		untilTID:  p.Second.TID,
		untilCnt:  p.Second.TCount,
		pair:      p,
	}
}

// pairs returns the races a flip set reverses, in order.
func (fs flipSet) pairs() []race.Pair {
	out := make([]race.Pair, len(fs.flips))
	for i, f := range fs.flips {
		out[i] = f.pair
	}
	return out
}

func (f flip) key() string {
	return fmt.Sprintf("%#x:t%d#%d>t%d#%d", f.addr, f.untilTID, f.untilCnt, f.holdTID, f.holdCount)
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
	a := flipEnd{tid: f.holdTID, count: f.holdCount}
	b := flipEnd{tid: f.untilTID, count: f.untilCnt}
	if b.tid < a.tid || (b.tid == a.tid && b.count < a.count) {
		a, b = b, a
	}
	return flipPairKey{addr: f.addr, lo: a, hi: b}
}

// flipSet is an ordered set of flips defining one point in the search
// tree. Order matters only for the key; enforcement is simultaneous.
type flipSet struct {
	flips []flip
	id    string
}

// with returns fs extended by f, or ok=false if fs already constrains
// f's access pair (in either direction).
func (fs flipSet) with(f flip) (flipSet, bool) {
	pk := f.pairKey()
	for _, g := range fs.flips {
		if g.pairKey() == pk {
			return flipSet{}, false
		}
	}
	child := flipSet{flips: append(append([]flip(nil), fs.flips...), f)}
	child.id = fs.id + "|" + f.key()
	return child, true
}

// director is both the replay Strategy and an Observer: it enforces the
// recorded sketch order, holds threads per the flip set, explores the
// remaining freedom with a deterministic (or seeded-random, for the
// no-feedback ablation) policy, and detects divergence from the sketch.
//
// The director deliberately implements no sched.RunGranter: a directed
// attempt runs on budget-1 grants so every scheduling point — in
// particular every point near a flip's hold window — is a fresh pick
// where a hold can engage or release. Granting a multi-point run to a
// thread that reaches a flip point mid-run would commit past the very
// interleaving the flip exists to force. Declared batches still arrive
// as candidates with Run > 1; the director simply never consumes the
// declaration, so batch points stay individually interleavable under
// replay.
type director struct {
	scheme  sketch.Scheme
	entries []trace.SketchEntry
	k       int // next sketch entry to honor

	flips    []flip
	flipDone []bool
	executed map[trace.TID]uint64

	rng  *rand.Rand            // nil => deterministic sticky policy
	vt   map[trace.TID]float64 // virtual time for the random policy
	last trace.TID             // thread granted at the previous pick

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

	// grantBuf and filterBuf are the arrays collect and applyFlips
	// append into, reused from pick to pick: Pick consumes the
	// candidates before it returns, so no scheduling point allocates
	// them afresh.
	grantBuf  []sched.Candidate
	filterBuf []sched.Candidate
}

func newDirector(scheme sketch.Scheme, entries []trace.SketchEntry, fs flipSet, rng *rand.Rand) *director {
	// Enforce flips in canonical (key) order, not discovery order: the
	// only order-sensitive operation is releaseOneFlip's first-match
	// scan, and sorting makes the attempt a function of the flip *set* —
	// the same identity the dedup set keys on.
	// Each key is rendered once, not at every comparison. Keys within a
	// set are distinct (with rejects a repeated pair), so the order is
	// total and independent of the sort algorithm.
	type keyed struct {
		key string
		f   flip
	}
	byKey := make([]keyed, len(fs.flips))
	for i, f := range fs.flips {
		byKey[i] = keyed{key: f.key(), f: f}
	}
	sort.Slice(byKey, func(i, j int) bool { return byKey[i].key < byKey[j].key })
	flips := make([]flip, len(byKey))
	for i, kf := range byKey {
		flips[i] = kf.f
	}
	return &director{
		scheme:   scheme,
		entries:  entries,
		flips:    flips,
		flipDone: make([]bool, len(flips)),
		executed: make(map[trace.TID]uint64),
		rng:      rng,
	}
}

// Pick implements sched.Strategy.
func (d *director) Pick(view *sched.PickView) (trace.TID, bool) {
	// Sticky fast path: once the sketch is fully consumed and no flip
	// is still pending, every candidate is grantable and unheld, so the
	// deterministic sticky policy reduces to "keep the last thread
	// running if it can" — answered by binary search over the
	// TID-sorted view without re-partitioning the candidates. The tail
	// of a directed attempt (usually the bulk of its points) pays one
	// PickView.Find instead of two candidate scans.
	if d.rng == nil && d.k >= len(d.entries) && !d.anyFlipPending() {
		if c, ok := view.Find(d.last); ok {
			d.last = c.TID
			return c.TID, true
		}
	}
	grantable, expected, ok := d.collect(view)
	if !ok {
		return trace.NoTID, false
	}

	// Enforce the flip set: hold an access whose identity matches a
	// pending flip until its partner has executed. The moment a flip
	// engages, the schedule has deviated from the recorded execution on
	// purpose, so sketch enforcement switches to soft for the rest of
	// the attempt (PRES's "replay to the deviation point, then explore")
	// and the candidates are re-collected under the relaxed rule so the
	// partner thread can actually run. A flip that still wedges the
	// schedule (its partner transitively blocked on the held thread) is
	// released as a last resort; either way the attempt remains a
	// deterministic function of the flip set.
	filtered, anyHeld := d.applyFlips(grantable)
	if anyHeld && !d.soft {
		d.soft = true
		grantable, expected, _ = d.collect(view)
		filtered, _ = d.applyFlips(grantable)
	}
	for len(filtered) == 0 {
		if !d.releaseOneFlip(grantable) {
			d.diverged = true
			d.divergeNote = "flip release failed to unwedge the schedule"
			return trace.NoTID, false
		}
		filtered, _ = d.applyFlips(grantable)
	}

	var choice sched.Candidate
	switch {
	case d.rng != nil:
		// Random exploration (the no-feedback ablation): time-weighted
		// like the production scheduler, so window-hitting odds match
		// a real stress re-run rather than a uniform event lottery.
		if d.vt == nil {
			d.vt = make(map[trace.TID]float64)
		}
		choice = filtered[0]
		for _, c := range filtered[1:] {
			if d.vt[c.TID] < d.vt[choice.TID] {
				choice = c
			}
		}
		d.vt[choice.TID] += float64(choice.Cost) * (0.85 + 0.3*d.rng.Float64())
	default:
		// Deterministic sticky policy: keep running the thread that ran
		// last until it blocks or the sketch/flips hold it. Coarse
		// schedules resemble the production run, so the baseline
		// attempt does not trip unrelated race windows the production
		// run never opened; context switches happen exactly where the
		// sketch or a flip forces them. When the current thread cannot
		// run, fall back to the least-executed candidate so no thread
		// is starved.
		choice = filtered[0]
		sticky := false
		for _, c := range filtered {
			if c.TID == d.last {
				choice = c
				sticky = true
				break
			}
		}
		if !sticky {
			for _, c := range filtered[1:] {
				if d.executed[c.TID] < d.executed[choice.TID] {
					choice = c
				}
			}
		}
	}
	d.last = choice.TID
	if expected != nil && choice.TID == expected.TID && choice.Kind == expected.Kind && choice.Obj == expected.Obj {
		d.k++
		if d.k == len(d.entries) {
			d.exhaustStep = view.Step + 1
		}
	}
	return choice.TID, true
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

// collect partitions the runnable candidates under the current sketch
// rule: strictly before any flip engages (out-of-turn sketch ops are
// held, impossible sketches diverge), and softly after (everything may
// run, the expected entry is merely preferred via k-advancement).
func (d *director) collect(view *sched.PickView) (grantable []sched.Candidate, expected *sched.Candidate, ok bool) {
	grantable = d.grantBuf[:0]
	for i := range view.Candidates {
		c := view.Candidates[i]
		if d.scheme.Records(c.Kind) && d.k < len(d.entries) {
			exp := d.entries[d.k]
			if c.TID == exp.TID && c.Kind == exp.Kind && c.Obj == exp.Obj {
				expected = &view.Candidates[i]
				grantable = append(grantable, c)
				continue
			}
			if d.soft {
				// Past the deviation point the recorded order is only
				// a guide: out-of-turn sketch ops may run.
				grantable = append(grantable, c)
				continue
			}
			if c.TID == exp.TID {
				// The thread owed the next sketch point reached a
				// different one: its program order can never produce
				// the recorded entry any more.
				d.diverged = true
				d.divergeNote = fmt.Sprintf("sketch[%d]=%v but t%d is at %v obj=%#x",
					d.k, exp, c.TID, c.Kind, c.Obj)
				return nil, nil, false
			}
			continue // a sketch-kind op out of recorded turn: hold
		}
		grantable = append(grantable, c)
	}
	if len(grantable) == 0 {
		d.diverged = true
		d.divergeNote = fmt.Sprintf("no thread can reach sketch[%d]", d.k)
		return nil, nil, false
	}
	d.grantBuf = grantable[:0]
	return grantable, expected, true
}

// applyFlips filters out candidates currently held by an active flip.
func (d *director) applyFlips(grantable []sched.Candidate) (filtered []sched.Candidate, anyHeld bool) {
	filtered = d.filterBuf[:0]
	for _, c := range grantable {
		if d.heldByFlip(c) {
			anyHeld = true
			continue
		}
		filtered = append(filtered, c)
	}
	d.filterBuf = filtered[:0]
	return filtered, anyHeld
}

// releaseOneFlip abandons the first active flip that is holding one of
// the candidates, reporting whether one was found.
func (d *director) releaseOneFlip(grantable []sched.Candidate) bool {
	for _, c := range grantable {
		if !c.Kind.IsMemory() {
			continue
		}
		next := d.executed[c.TID] + 1
		for i, f := range d.flips {
			if !d.flipDone[i] && c.TID == f.holdTID && next == f.holdCount && c.Obj == f.addr {
				d.flipDone[i] = true
				return true
			}
		}
	}
	return false
}

func (d *director) heldByFlip(c sched.Candidate) bool {
	if !c.Kind.IsMemory() {
		return false
	}
	next := d.executed[c.TID] + 1
	for i, f := range d.flips {
		if d.flipDone[i] {
			continue
		}
		if c.TID == f.holdTID && next == f.holdCount && c.Obj == f.addr {
			return true
		}
	}
	return false
}

// OnEvent implements sched.Observer: it tracks per-thread progress so
// flip identities ((tid, tcount) pairs) can be matched, and releases
// flips whose partner access has executed.
func (d *director) OnEvent(ev trace.Event) uint64 {
	d.executed[ev.TID] = ev.TCount
	for i, f := range d.flips {
		if !d.flipDone[i] && ev.TID == f.untilTID && ev.TCount >= f.untilCnt {
			d.flipDone[i] = true
		}
	}
	return 0
}

// sketchConsumed reports whether every recorded sketch point was honored.
func (d *director) sketchConsumed() bool { return d.k >= len(d.entries) }

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
