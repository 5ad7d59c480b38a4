package search

import "testing"

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Store(Entry{Key: "a", Note: "a"})
	c.Store(Entry{Key: "b", Note: "b"})
	if _, ok := c.Lookup("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.Store(Entry{Key: "c", Note: "c"}) // evicts b, the LRU
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if e, ok := c.Lookup(k); !ok || e.Note != k {
			t.Fatalf("%s missing or wrong after eviction", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 3 hits 1 miss", hits, misses)
	}
	c.Store(Entry{Key: "a", Note: "a2"}) // update in place
	if e, _ := c.Lookup("a"); e.Note != "a2" {
		t.Fatal("update did not replace the entry")
	}
}

func TestCacheNilAndEmptyKeySafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Lookup("x"); ok {
		t.Fatal("nil cache hit")
	}
	c.Store(Entry{Key: "x"})
	if c.Len() != 0 {
		t.Fatal("nil cache grew")
	}
	real := NewCache(0)
	real.Store(Entry{Key: ""})
	if real.Len() != 0 {
		t.Fatal("empty key stored")
	}
}
