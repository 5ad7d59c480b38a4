// Package search holds the replay search engine's data layer: the
// priority frontier directed attempts are queued on and the
// byte-budgeted prefix-snapshot cache. It sits below internal/core
// (which owns the attempt lifecycle and feedback generation) and beside
// internal/exec (the canonical-commit worker pool the searches run on);
// see INTERNALS.md for the layering.
package search

// Frontier is the directed search's work queue: a binary min-heap of
// nodes ordered by (depth, push sequence).
//
// The (depth, seq) order preserves the search's breadth-first shape —
// all single flips before any pair, and within a level the ranking the
// feedback generator pushed in — while letting children enter the
// moment their parent commits, with no wave barrier. On a search tree,
// insertion order never decreases in depth, so the minimum is the
// oldest node: pops are exactly a FIFO queue's.
//
// A Frontier is not safe for concurrent use. The replay search pushes
// and pops only under the exec pool's mutex.
type Frontier[T any] struct {
	h       []frontierItem[T]
	pushSeq uint64
}

type frontierItem[T any] struct {
	item  T
	depth int
	seq   uint64
}

func (a frontierItem[T]) less(b frontierItem[T]) bool {
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return a.seq < b.seq
}

// NewFrontier returns an empty frontier. The argument is unused.
func NewFrontier[T any](int) *Frontier[T] { return &Frontier[T]{} }

// Push adds an item at the given priority depth; the push sequence
// breaks depth ties (FIFO within a level).
func (f *Frontier[T]) Push(item T, depth int) {
	f.pushSeq++
	f.h = append(f.h, frontierItem[T]{item: item, depth: depth, seq: f.pushSeq})
	siftUp(f.h, len(f.h)-1)
}

// Pop removes and returns the best item; ok=false means the frontier
// is empty. The argument is unused.
func (f *Frontier[T]) Pop(int) (T, bool) {
	var zero T
	if len(f.h) == 0 {
		return zero, false
	}
	it := f.h[0]
	last := len(f.h) - 1
	f.h[0] = f.h[last]
	f.h[last] = frontierItem[T]{} // drop the item reference for the GC
	f.h = f.h[:last]
	if last > 0 {
		siftDown(f.h, 0)
	}
	return it.item, true
}

// Len returns the current item count.
func (f *Frontier[T]) Len() int { return len(f.h) }

func siftUp[T any](h []frontierItem[T], i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown[T any](h []frontierItem[T], i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].less(h[small]) {
			small = l
		}
		if r < n && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
