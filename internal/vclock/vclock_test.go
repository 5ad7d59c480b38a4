package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestZeroValueHappensBeforeTicked(t *testing.T) {
	var zero VC
	v := make(VC, 3).Tick(0)
	if !zero.HappensBefore(v) {
		t.Fatalf("zero clock should happen before %v", v)
	}
	if v.HappensBefore(zero) {
		t.Fatalf("%v should not happen before zero clock", v)
	}
}

func TestTickAdvances(t *testing.T) {
	v := make(VC, 2).Tick(1)
	if got := v.Get(1); got != 1 {
		t.Fatalf("Get(1) = %d, want 1", got)
	}
	if got := v.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d, want 0", got)
	}
}

func TestTickGrows(t *testing.T) {
	v := make(VC, 1).Tick(5)
	if len(v) != 6 {
		t.Fatalf("len = %d, want 6", len(v))
	}
	if v.Get(5) != 1 {
		t.Fatalf("Get(5) = %d, want 1", v.Get(5))
	}
}

func TestGetOutOfRange(t *testing.T) {
	v := make(VC, 2)
	if v.Get(-1) != 0 || v.Get(10) != 0 {
		t.Fatal("out-of-range Get should be 0")
	}
}

func TestJoinTakesMax(t *testing.T) {
	a := VC{1, 5, 0}
	b := VC{3, 2}
	j := a.Clone().Join(b)
	want := VC{3, 5, 0}
	if !slices.Equal(j, want) {
		t.Fatalf("join = %v, want %v", j, want)
	}
}

func TestHappensBeforeStrict(t *testing.T) {
	a := VC{1, 2}
	if a.HappensBefore(a) {
		t.Fatal("clock must not happen before itself")
	}
	b := VC{1, 3}
	if !a.HappensBefore(b) {
		t.Fatalf("%v should happen before %v", a, b)
	}
	if b.HappensBefore(a) {
		t.Fatalf("%v should not happen before %v", b, a)
	}
}

func TestConcurrent(t *testing.T) {
	// Concurrent clocks are unordered: neither happens before the other.
	a := VC{2, 0}
	b := VC{0, 2}
	if a.HappensBefore(b) || b.HappensBefore(a) {
		t.Fatalf("%v and %v should be concurrent", a, b)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := VC{1, 2}
	c := a.Clone()
	c = c.Tick(0)
	if a.Get(0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// randVC generates a small random clock for property tests.
func randVC(r *rand.Rand) VC {
	n := 1 + r.Intn(5)
	v := make(VC, n)
	for i := range v {
		v[i] = uint64(r.Intn(4))
	}
	return v
}

func TestPropJoinUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		j := a.Clone().Join(b)
		// join is an upper bound of both operands
		return !j.HappensBefore(a) && !j.HappensBefore(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		return slices.Equal(a.Clone().Join(b), b.Clone().Join(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r)
		return slices.Equal(a.Clone().Join(a), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropHappensBeforeAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVC(r), randVC(r)
		return !(a.HappensBefore(b) && b.HappensBefore(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropHappensBeforeTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r)
		b := a.Clone().Join(randVC(r)).Tick(0)
		c := b.Clone().Tick(1)
		// a < b and b < c by construction, so a < c must hold.
		return a.HappensBefore(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTickStrictlyAfter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randVC(r)
		b := a.Clone().Tick(r.Intn(len(a)))
		return a.HappensBefore(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
