package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// refPick is the director's pick as three passes over the candidates:
// partition them under the sketch rule, filter out the flip-held ones,
// then apply the policy, re-partitioning when a flip first engages and
// releasing flips while the filter leaves nothing. It is the reference
// the single-scan director.Pick is checked against.
func refPick(d *director, view *sched.PickView) (trace.TID, bool) {
	if d.rng == nil && d.k >= len(d.entries) && !d.anyFlipPending() {
		if c, ok := view.Find(d.last); ok {
			d.last = c.TID
			return c.TID, true
		}
	}
	held := func(c sched.Candidate) bool {
		if !c.Kind.IsMemory() {
			return false
		}
		next := d.executed.at(c.TID) + 1
		for i, f := range d.flips {
			if hold := f.pair.First; !d.flipDone[i] && c.TID == hold.TID && next == hold.TCount && c.Obj == hold.Addr {
				return true
			}
		}
		return false
	}
	collect := func() (grantable []sched.Candidate, expected *sched.Candidate, ok bool) {
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
					grantable = append(grantable, c)
					continue
				}
				if c.TID == exp.TID {
					d.diverged = true
					d.divergeNote = fmt.Sprintf("sketch[%d]=%v but t%d is at %v obj=%#x",
						d.k, exp, c.TID, c.Kind, c.Obj)
					return nil, nil, false
				}
				continue
			}
			grantable = append(grantable, c)
		}
		if len(grantable) == 0 {
			d.diverged = true
			d.divergeNote = fmt.Sprintf("no thread can reach sketch[%d]", d.k)
			return nil, nil, false
		}
		return grantable, expected, true
	}
	filter := func(grantable []sched.Candidate) (filtered []sched.Candidate, anyHeld bool) {
		for _, c := range grantable {
			if held(c) {
				anyHeld = true
				continue
			}
			filtered = append(filtered, c)
		}
		return filtered, anyHeld
	}
	release := func(grantable []sched.Candidate) bool {
		for _, c := range grantable {
			if !c.Kind.IsMemory() {
				continue
			}
			next := d.executed.at(c.TID) + 1
			for i, f := range d.flips {
				if hold := f.pair.First; !d.flipDone[i] && c.TID == hold.TID && next == hold.TCount && c.Obj == hold.Addr {
					d.flipDone[i] = true
					return true
				}
			}
		}
		return false
	}

	grantable, expected, ok := collect()
	if !ok {
		return trace.NoTID, false
	}
	filtered, anyHeld := filter(grantable)
	if anyHeld && !d.soft {
		d.soft = true
		grantable, expected, _ = collect()
		filtered, _ = filter(grantable)
	}
	for len(filtered) == 0 {
		if !release(grantable) {
			d.diverged = true
			d.divergeNote = "flip release failed to unwedge the schedule"
			return trace.NoTID, false
		}
		filtered, _ = filter(grantable)
	}
	var choice sched.Candidate
	if d.rng != nil {
		choice = filtered[0]
		for _, c := range filtered[1:] {
			if d.vt.at(c.TID) < d.vt.at(choice.TID) {
				choice = c
			}
		}
		d.vt.set(choice.TID, d.vt.at(choice.TID)+float64(choice.Cost)*(0.85+0.3*d.rng.Float64()))
	} else {
		choice = filtered[0]
		sticky := false
		for _, c := range filtered {
			if c.TID == d.last {
				choice, sticky = c, true
				break
			}
		}
		if !sticky {
			for _, c := range filtered[1:] {
				if d.executed.at(c.TID) < d.executed.at(choice.TID) {
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

// directorState is the part of a director a pick can change.
type directorState struct {
	K, ExhaustStep uint64
	Soft, Diverged bool
	Note           string
	FlipDone       []bool
	Last           trace.TID
	Executed       perThread[uint64]
	VT             perThread[float64]
}

func stateOf(d *director) directorState {
	return directorState{
		K: uint64(d.k), ExhaustStep: d.exhaustStep, Soft: d.soft, Diverged: d.diverged,
		Note: d.divergeNote, FlipDone: append([]bool(nil), d.flipDone...), Last: d.last,
		Executed: append(perThread[uint64](nil), d.executed...), VT: append(perThread[float64](nil), d.vt...),
	}
}

// TestDirectorPickMatchesThreePass drives director.Pick and refPick in
// lockstep through random directed attempts — random sketches, flip
// sets, candidate views and both policies — and requires the same
// grant, the same divergence and the same director state after every
// pick.
func TestDirectorPickMatchesThreePass(t *testing.T) {
	kinds := []trace.Kind{trace.KindLoad, trace.KindStore, trace.KindLock, trace.KindUnlock}
	objs := []uint64{0x10, 0x20, 7, 8}
	picks, softs, releases, diverged := 0, 0, 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		threads := 2 + r.Intn(3)
		var entries []trace.SketchEntry
		for i := r.Intn(12); i > 0; i-- {
			entries = append(entries, entry(trace.TID(r.Intn(threads)), kinds[2+r.Intn(2)], objs[2+r.Intn(2)]))
		}
		fs := flipSet{}
		for i := r.Intn(4); i > 0; i-- {
			a := trace.TID(r.Intn(threads))
			b := (a + 1 + trace.TID(r.Intn(threads-1))) % trace.TID(threads)
			addr := objs[r.Intn(2)]
			f := flipOf(race.Pair{
				First:  race.Access{TID: a, TCount: uint64(1 + r.Intn(4)), Addr: addr, Write: true},
				Second: race.Access{TID: b, TCount: uint64(1 + r.Intn(4)), Addr: addr},
			})
			if !fs.constrains(f) {
				fs = fs.plus(f)
			}
		}
		var rngA, rngB *rand.Rand
		if r.Intn(3) == 0 {
			rngA, rngB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		}
		got := newDirector(sketch.SYNC, entries, fs, rngA)
		want := newDirector(sketch.SYNC, entries, fs, rngB)
		for step := uint64(0); step < 40; step++ {
			v := &sched.PickView{Step: step}
			for tid := 0; tid < threads; tid++ {
				if r.Intn(4) == 0 {
					continue
				}
				c := sched.Candidate{TID: trace.TID(tid), Kind: kinds[r.Intn(len(kinds))], Obj: objs[r.Intn(len(objs))], Cost: uint64(1 + r.Intn(20)), Run: 1}
				if want.k < len(entries) && entries[want.k].TID == c.TID && r.Intn(2) == 0 {
					c.Kind, c.Obj = entries[want.k].Kind, entries[want.k].Obj
				}
				v.Candidates = append(v.Candidates, c)
			}
			if len(v.Candidates) == 0 {
				continue
			}
			released := countTrue(want.flipDone)
			gtid, gok := got.Pick(v)
			wtid, wok := refPick(want, v)
			if gtid != wtid || gok != wok || !reflect.DeepEqual(stateOf(got), stateOf(want)) {
				t.Fatalf("seed %d step %d view %+v:\n got  %d %v %+v\n want %d %v %+v",
					seed, step, v.Candidates, gtid, gok, stateOf(got), wtid, wok, stateOf(want))
			}
			releases += countTrue(want.flipDone) - released
			picks++
			if !gok {
				diverged++
				break
			}
			ev := trace.Event{TID: gtid, TCount: got.executed.at(gtid) + 1}
			got.OnEvent(ev)
			want.OnEvent(ev)
		}
		if got.soft {
			softs++
		}
	}
	t.Logf("%d picks, %d attempts went soft, %d flips released, %d diverged", picks, softs, releases, diverged)
	if softs == 0 || releases == 0 || diverged == 0 {
		t.Fatal("the random attempts never engaged a flip, released one or diverged")
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
