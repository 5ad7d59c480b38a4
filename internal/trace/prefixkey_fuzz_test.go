package trace

import "testing"

// FuzzFlipPrefixKey pins the keying discipline of the snapshot tree
// (internal/core snapshot.go): a directed attempt stores snapshots
// under the schedule key of its own flip set, and a child looks up the
// key of its parent prefix — the child's flips minus the one it added.
// The tree is only sound if every proper prefix of a flip sequence
// keys differently from the full set (a collision would let an attempt
// restore from its own, deeper snapshots — a cycle), and if distinct
// prefix depths never collide with each other. Both must hold through
// the full ScheduleCacheKey composition, not just FlipSetKey, and for
// duplicate flips too: extending a set by a flip it already contains
// still changes the multiset, so it must still change the key.
func FuzzFlipPrefixKey(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), flipSeed(36))
	f.Add(uint64(0xdeadbeef), flipSeed(72))
	f.Add(uint64(1)<<63, flipSeed(36*8))
	// Duplicate flips: two identical 36-byte tuples.
	dup := append(flipSeed(36), flipSeed(36)...)
	f.Add(uint64(42), dup)

	f.Fuzz(func(t *testing.T, ctx uint64, b []byte) {
		flips := flipsFromBytes(b)
		keys := make([]string, len(flips)+1)
		for i := 0; i <= len(flips); i++ {
			keys[i] = ScheduleCacheKey(ctx, FlipSetKey(flips[:i]))
		}
		for i := 0; i <= len(flips); i++ {
			for j := i + 1; j <= len(flips); j++ {
				if keys[i] == keys[j] {
					t.Fatalf("prefix depths %d and %d share key %q (flips %v)",
						i, j, keys[i], flips)
				}
			}
		}
		// A context change must move every key: two searches with
		// different digests can never serve each other's snapshots.
		for i := 0; i <= len(flips); i++ {
			if other := ScheduleCacheKey(ctx+1, FlipSetKey(flips[:i])); other == keys[i] {
				t.Fatalf("depth %d key %q ignores the context digest", i, keys[i])
			}
		}
	})
}
