// Package vclock implements vector clocks for happens-before tracking.
//
// PRES's feedback generator needs to know which pairs of memory accesses
// are concurrent (racing) during a replay attempt. We track one logical
// clock component per thread; the usual vector-clock laws give a partial
// order over events. The race detector decides it from one component:
// an access happens before a clock exactly when the clock has seen the
// access's epoch, its thread's component at the access (internal/race).
package vclock

// VC is a vector clock. Index i holds the number of events thread i has
// performed that the owner of the clock knows about. The zero value is a
// valid clock that happens-before everything.
type VC []uint64

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Get returns component i, treating missing components as zero.
func (v VC) Get(i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// Tick increments component i, growing the clock if needed, and returns
// the (possibly reallocated) clock.
func (v VC) Tick(i int) VC {
	v = v.grow(i + 1)
	v[i]++
	return v
}

// Join merges other into v component-wise (v = v join other) and returns
// the (possibly reallocated) clock. Join computes the least upper bound
// of the two clocks.
func (v VC) Join(other VC) VC {
	v = v.grow(len(other))
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
	return v
}

// HappensBefore reports whether v happens strictly before other:
// v <= other component-wise and v != other.
func (v VC) HappensBefore(other VC) bool {
	le, lt := true, false
	n := max(len(v), len(other))
	for i := 0; i < n; i++ {
		a, b := v.Get(i), other.Get(i)
		if a > b {
			le = false
			break
		}
		if a < b {
			lt = true
		}
	}
	return le && lt
}

func (v VC) grow(n int) VC {
	if n <= len(v) {
		return v
	}
	c := make(VC, n)
	copy(c, v)
	return c
}
