package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// Fuzz targets for the replay search's canonical keys. The invariant
// under test is injectivity both ways: equal flip multisets (in any
// order) must share a key, and distinct multisets must never collide —
// a collision would make the dedup set skip a live attempt, or the
// snapshot tree resume an attempt from another attempt's prefix.

// flipsFromBytes decodes up to maxFuzzFlips FlipIDs from raw fuzz
// bytes, 36 bytes per flip.
func flipsFromBytes(b []byte) []FlipID {
	const flipBytes = 36
	const maxFuzzFlips = 8
	var out []FlipID
	for len(b) >= flipBytes && len(out) < maxFuzzFlips {
		out = append(out, FlipID{
			Addr:       binary.LittleEndian.Uint64(b[0:]),
			HoldTID:    TID(binary.LittleEndian.Uint32(b[8:])),
			HoldCount:  binary.LittleEndian.Uint64(b[12:]),
			UntilTID:   TID(binary.LittleEndian.Uint32(b[20:])),
			UntilCount: binary.LittleEndian.Uint64(b[24:]),
		})
		b = b[flipBytes:]
	}
	return out
}

// sortedFlips is an order-independent normal form computed without
// going through encode/FlipSetKey, so the test's notion of multiset
// equality is independent of the implementation under test.
func sortedFlips(fs []FlipID) []FlipID {
	out := append([]FlipID(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Addr != b.Addr:
			return a.Addr < b.Addr
		case a.HoldTID != b.HoldTID:
			return a.HoldTID < b.HoldTID
		case a.HoldCount != b.HoldCount:
			return a.HoldCount < b.HoldCount
		case a.UntilTID != b.UntilTID:
			return a.UntilTID < b.UntilTID
		default:
			return a.UntilCount < b.UntilCount
		}
	})
	return out
}

func sameMultiset(a, b []FlipID) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedFlips(a), sortedFlips(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func flipSeed(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return b
}

func FuzzFlipSetKey(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(flipSeed(36), flipSeed(36))
	f.Add(flipSeed(72), flipSeed(36))
	f.Add(flipSeed(108), flipSeed(109))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		fa, fb := flipsFromBytes(rawA), flipsFromBytes(rawB)
		ka, kb := FlipSetKey(fa), FlipSetKey(fb)

		// Order independence: any permutation of fa keys identically.
		rev := make([]FlipID, len(fa))
		for i, fl := range fa {
			rev[len(fa)-1-i] = fl
		}
		if kr := FlipSetKey(rev); kr != ka {
			t.Fatalf("order-dependent key: %q vs reversed %q", ka, kr)
		}

		// Injectivity both ways: same multiset <=> same key.
		if same := sameMultiset(fa, fb); same != (ka == kb) {
			t.Fatalf("collision contract violated: sameMultiset=%v key-equal=%v\nka=%q\nkb=%q",
				same, ka == kb, ka, kb)
		}

		// The empty set's key is reserved for the empty set.
		if len(fa) > 0 && ka == "" {
			t.Fatalf("non-empty flip set produced the empty key")
		}
	})
}

func FuzzScheduleCacheKey(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint64(0), []byte{})
	f.Add(uint64(1), flipSeed(36), uint64(1), flipSeed(36))
	f.Add(uint64(7), flipSeed(72), uint64(7), flipSeed(36))
	f.Fuzz(func(t *testing.T, ctxA uint64, rawA []byte, ctxB uint64, rawB []byte) {
		fa, fb := flipsFromBytes(rawA), flipsFromBytes(rawB)
		ka := ScheduleCacheKey(ctxA, FlipSetKey(fa))
		kb := ScheduleCacheKey(ctxB, FlipSetKey(fb))

		// Two attempts are the same execution iff they share the search
		// context and the flip multiset.
		sameAttempt := ctxA == ctxB && sameMultiset(fa, fb)
		if sameAttempt != (ka == kb) {
			t.Fatalf("collision contract violated: sameAttempt=%v key-equal=%v\nka=%q\nkb=%q",
				sameAttempt, ka == kb, ka, kb)
		}
	})
}

// TestFlipIDEncodeMatchesSprintf: the hand-rolled encoder writes the
// same bytes as the fmt reference below, over boundary values of every
// field, so flip-set keys and schedule keys are unchanged.
func TestFlipIDEncodeMatchesSprintf(t *testing.T) {
	reference := func(f FlipID) string {
		return fmt.Sprintf("%016x.%08x.%016x.%08x.%016x",
			f.Addr, uint32(f.HoldTID), f.HoldCount, uint32(f.UntilTID), f.UntilCount)
	}
	words := []uint64{0, 1, 0xa, 0xdeadbeef, 1 << 63, math.MaxUint64}
	tids := []TID{0, 1, 0xf, math.MaxInt32, -1, math.MinInt32}
	for _, w := range words {
		for _, tid := range tids {
			for _, f := range []FlipID{
				{Addr: w, HoldTID: tid, HoldCount: w, UntilTID: tid, UntilCount: w},
				{Addr: ^w, HoldTID: tid, HoldCount: 0, UntilTID: -tid, UntilCount: math.MaxUint64 - w},
			} {
				if got, want := f.encode(), reference(f); got != want {
					t.Fatalf("encode(%+v) = %q, want %q", f, got, want)
				}
			}
		}
	}
}
