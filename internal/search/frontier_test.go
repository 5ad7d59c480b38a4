package search

import "testing"

func TestFrontierIsFIFO(t *testing.T) {
	// Pops come in exact push order when depth never decreases — the
	// sequential engine's BFS queue.
	f := NewFrontier[uint64](1)
	var want []uint64
	for i := uint64(0); i < 20; i++ {
		depth := 1 + int(i/5) // non-decreasing, like a search tree
		f.Push(i, depth)
		want = append(want, i)
	}
	for i, tag := range want {
		got, ok := f.Pop(0)
		if !ok {
			t.Fatalf("pop %d: frontier empty early", i)
		}
		if got != tag {
			t.Fatalf("pop %d: got tag %d, want %d (FIFO broken)", i, got, tag)
		}
	}
	if _, ok := f.Pop(0); ok || f.Len() != 0 {
		t.Fatal("frontier not empty after draining")
	}
}

func TestFrontierShallowFirst(t *testing.T) {
	// A shallower item pops before deeper ones pushed earlier, and
	// items of equal depth keep their push order.
	f := NewFrontier[uint64](1)
	for i := uint64(0); i < 8; i++ {
		f.Push(100+i, 3)
	}
	f.Push(7, 1)
	f.Push(8, 1)
	want := []uint64{7, 8, 100, 101, 102, 103, 104, 105, 106, 107}
	for i, tag := range want {
		got, ok := f.Pop(0)
		if !ok || got != tag {
			t.Fatalf("pop %d: got %d (ok=%v), want %d", i, got, ok, tag)
		}
		if f.Len() != len(want)-i-1 {
			t.Fatalf("pop %d: Len = %d, want %d", i, f.Len(), len(want)-i-1)
		}
	}
}
