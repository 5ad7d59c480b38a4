// Package search holds the replay search engine's data layer: the
// sharded priority frontier directed attempts are queued on and the
// byte-budgeted prefix-snapshot cache. It sits below internal/core
// (which owns the attempt lifecycle and feedback generation) and beside
// internal/exec (the canonical-commit worker pool the searches run on);
// see INTERNALS.md for the layering.
package search

import (
	"sync"
	"sync/atomic"
)

// Frontier is the directed search's work queue: a priority frontier of
// nodes ordered by (depth, push sequence), spread over
// independently-locked shards so attempt workers can push and steal
// without funneling through one lock.
//
// The (depth, seq) order preserves the search's breadth-first shape —
// all single flips before any pair, and within a level the ranking the
// feedback generator pushed in — while letting children enter the
// moment their parent commits, with no wave barrier. With one shard
// (the workers=1 configuration) pops are exactly the sequential
// engine's FIFO: on a search tree, insertion order never decreases in
// depth, so the (depth, seq) minimum is the oldest node.
//
// With several shards, priority is exact within a shard and best-effort
// across them: Pop scans every shard's current minimum and takes the
// best, but a concurrent push may land a better node a moment later.
// That slack only ever reorders same-priority-class work between
// workers; it never loses a node.
type Frontier[T any] struct {
	shards  []frontierShard[T]
	size    atomic.Int64
	pushSeq atomic.Uint64
}

type frontierShard[T any] struct {
	mu sync.Mutex
	h  []frontierItem[T] // binary min-heap by less()
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

// NewFrontier sizes the frontier for the given worker count.
func NewFrontier[T any](workers int) *Frontier[T] {
	n := workers
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return &Frontier[T]{shards: make([]frontierShard[T], n)}
}

// Push adds an item at the given priority depth; the push sequence
// both breaks depth ties (FIFO within a level) and round-robins items
// across shards.
func (f *Frontier[T]) Push(item T, depth int) {
	seq := f.pushSeq.Add(1)
	it := frontierItem[T]{item: item, depth: depth, seq: seq}
	s := &f.shards[seq%uint64(len(f.shards))]
	s.mu.Lock()
	s.h = append(s.h, it)
	siftUp(s.h, len(s.h)-1)
	s.mu.Unlock()
	f.size.Add(1)
}

// Pop removes and returns the best item, scanning shards starting at
// the worker's home shard (so uncontended workers tend to reuse their
// own shard and steal only when it runs dry). ok=false means the
// frontier is empty.
func (f *Frontier[T]) Pop(home int) (T, bool) {
	n := len(f.shards)
	for f.size.Load() > 0 {
		best := -1
		var bestItem frontierItem[T]
		for i := 0; i < n; i++ {
			s := &f.shards[(home+i)%n]
			s.mu.Lock()
			if len(s.h) > 0 && (best < 0 || s.h[0].less(bestItem)) {
				best = (home + i) % n
				bestItem = s.h[0]
			}
			s.mu.Unlock()
		}
		if best < 0 {
			break // raced with concurrent pops; size check re-verifies
		}
		s := &f.shards[best]
		s.mu.Lock()
		if len(s.h) == 0 {
			s.mu.Unlock()
			continue // another worker drained it between scans; rescan
		}
		it := s.h[0]
		last := len(s.h) - 1
		s.h[0] = s.h[last]
		var zero frontierItem[T]
		s.h[last] = zero // drop the item reference for the GC
		s.h = s.h[:last]
		if last > 0 {
			siftDown(s.h, 0)
		}
		s.mu.Unlock()
		f.size.Add(-1)
		return it.item, true
	}
	var zero T
	return zero, false
}

// Len returns the current item count (exact between operations,
// advisory while workers are pushing and popping).
func (f *Frontier[T]) Len() int { return int(f.size.Load()) }

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
