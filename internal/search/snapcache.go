package search

import (
	"container/list"
	"sync"

	"repro/internal/trace"
)

// DefaultSnapshotBudget is the byte budget a zero-budget
// NewSnapshotCache gets: enough for a few hundred corpus-app snapshots
// without threatening a search's working set.
const DefaultSnapshotBudget int64 = 64 << 20

// Snapshot is one prefix-snapshot of a directed replay attempt: the
// engine state and boundary digests at a scheduler quiescent point,
// plus the grant order that deterministically re-establishes it. It
// keeps no world state. A child attempt whose flip set extends the
// capturing attempt's set resumes by force-replaying Order
// (mechanical, no enforcement), validating EventDigest/WorldDigest at
// the boundary — the same check a recording checkpoint gets — and then
// executing only its divergent suffix.
//
// Snapshots are immutable once stored: resumes clone what they need
// (the engine state is re-cloned per resume), so eviction never
// invalidates a resume already in flight.
type Snapshot struct {
	// Key is the capturing attempt's prefix identity — its
	// trace.ScheduleCacheKey — so children look up snapshots by their
	// parent's flip set.
	Key string
	// Step is the committed-event count at capture; a snapshot is
	// usable for a child whose first divergence point lies strictly
	// after it.
	Step uint64
	// EventDigest and WorldDigest validate the boundary exactly as a
	// recording checkpoint's digests do (see internal/core prefix.go).
	EventDigest uint64
	WorldDigest uint64
	// Order is the grant order of the first Step committed events.
	Order []trace.TID
	// State is the engine's opaque resume state (detector clone,
	// director cursor) — internal/core owns its concrete type.
	State any
	// Bytes is the snapshot's accounted size, fixed at capture.
	Bytes int64
}

// SnapshotStats are one cache's lifetime tallies.
type SnapshotStats struct {
	Hits    uint64 // Best calls that returned a snapshot
	Misses  uint64 // Best calls that found nothing usable
	Stored  uint64 // snapshots accepted by Store
	Evicted uint64 // snapshots dropped by the byte budget
	Bytes   int64  // bytes currently retained
}

// SnapshotCache is the bounded in-memory store prefix snapshots live
// in: a byte-budget LRU over whole snapshots, indexed by prefix key.
// One cache serves one search (all workers); entries are immutable, so
// concurrent Best/Store from any number of workers is safe and an
// evicted snapshot stays valid for the restore that already fetched
// it.
type SnapshotCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used
	byKey   map[string][]*list.Element
	hits    uint64
	misses  uint64
	stored  uint64
	evicted uint64
}

// NewSnapshotCache returns an empty cache retaining at most budget
// bytes of snapshots (<= 0 selects DefaultSnapshotBudget), evicting
// least-recently used whole snapshots.
func NewSnapshotCache(budget int64) *SnapshotCache {
	if budget <= 0 {
		budget = DefaultSnapshotBudget
	}
	return &SnapshotCache{
		budget: budget,
		ll:     list.New(),
		byKey:  make(map[string][]*list.Element),
	}
}

// Best returns the deepest stored snapshot for key whose Step is
// strictly below before and which usable accepts (nil accepts all) —
// the longest shared prefix a child attempt diverging at before can
// resume from — promoting it to most-recently-used; nil when none
// qualifies. The caller's predicate lets the engine impose conditions
// the cache cannot know, e.g. "the flip being added could not yet have
// engaged at this snapshot's step". Every call tallies a hit or a
// miss. usable runs under the cache lock and must not call back in.
func (c *SnapshotCache) Best(key string, before uint64, usable func(*Snapshot) bool) *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *list.Element
	for _, el := range c.byKey[key] {
		s := el.Value.(*Snapshot)
		if s.Step >= before || (usable != nil && !usable(s)) {
			continue
		}
		if best == nil || s.Step > best.Value.(*Snapshot).Step {
			best = el
		}
	}
	if best == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(best)
	return best.Value.(*Snapshot)
}

// Store inserts a snapshot and returns how many snapshots the byte
// budget evicted to make room. A snapshot larger than the whole budget
// is rejected (stored-and-instantly-evicted would only churn); a
// duplicate (same key and step) replaces the stored one in place.
func (c *SnapshotCache) Store(s *Snapshot) (evicted int) {
	if c == nil || s == nil || s.Key == "" || s.Bytes > c.budget {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byKey[s.Key] {
		if old := el.Value.(*Snapshot); old.Step == s.Step {
			c.bytes += s.Bytes - old.Bytes
			el.Value = s
			c.ll.MoveToFront(el)
			evicted = c.evictLocked()
			return evicted
		}
	}
	el := c.ll.PushFront(s)
	c.byKey[s.Key] = append(c.byKey[s.Key], el)
	c.bytes += s.Bytes
	c.stored++
	return c.evictLocked()
}

// evictLocked drops least-recently-used snapshots until the budget
// holds, returning how many went.
func (c *SnapshotCache) evictLocked() int {
	n := 0
	for c.bytes > c.budget {
		last := c.ll.Back()
		if last == nil {
			break
		}
		c.removeLocked(last)
		n++
	}
	return n
}

func (c *SnapshotCache) removeLocked(el *list.Element) {
	s := el.Value.(*Snapshot)
	c.ll.Remove(el)
	c.bytes -= s.Bytes
	c.evicted++
	els := c.byKey[s.Key]
	for i, e := range els {
		if e == el {
			els[i] = els[len(els)-1]
			els = els[:len(els)-1]
			break
		}
	}
	if len(els) == 0 {
		delete(c.byKey, s.Key)
	} else {
		c.byKey[s.Key] = els
	}
}

// Len returns the number of retained snapshots.
func (c *SnapshotCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the bytes currently retained.
func (c *SnapshotCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the cache's lifetime tallies.
func (c *SnapshotCache) Stats() SnapshotStats {
	if c == nil {
		return SnapshotStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SnapshotStats{
		Hits: c.hits, Misses: c.misses,
		Stored: c.stored, Evicted: c.evicted, Bytes: c.bytes,
	}
}
