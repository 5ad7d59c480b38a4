package core

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/sketch"
)

// The cache's own LRU/nil-safety unit tests moved to internal/search
// with the implementation; what stays here is the *engine's* cache
// contract — trajectory invariance, reproduction freshness, and the
// cross-search race stress.

func TestReplayCacheInvariant(t *testing.T) {
	// The tentpole's core invariant: a warm cache changes wall-clock
	// only, never the search trajectory. A second Workers=1 search over
	// the same recording must report the identical attempt count,
	// outcome and root causes — with every non-reproducing attempt
	// served from the cache (the success always re-executes).
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	cache := NewSearchCache(0)
	opts := ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1, Cache: cache}
	cold := Replay(prog, rec, opts)
	if !cold.Reproduced {
		t.Fatalf("cold search failed: %+v", cold.Stats)
	}
	if cold.Stats.CacheHits != 0 {
		t.Fatalf("cold search hit the cache %d times", cold.Stats.CacheHits)
	}
	if cold.Stats.CacheMisses != cold.Attempts {
		t.Fatalf("cold misses %d != attempts %d", cold.Stats.CacheMisses, cold.Attempts)
	}
	warm := Replay(prog, rec, opts)
	if warm.Attempts != cold.Attempts || warm.Reproduced != cold.Reproduced || warm.Flips != cold.Flips {
		t.Fatalf("warm search changed trajectory: cold %d attempts, warm %d", cold.Attempts, warm.Attempts)
	}
	if warm.Stats.CacheHits != warm.Attempts-1 || warm.Stats.CacheMisses != 1 {
		t.Fatalf("warm hits/misses = %d/%d, want %d/1 (success re-executes)",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, warm.Attempts-1)
	}
	if out := Reproduce(prog, rec, warm.Order); out.Failure == nil || out.Failure.BugID != "atom-bug" {
		t.Fatalf("warm captured order lost the bug: %v", out.Failure)
	}
}

func TestReplayCacheNeverServesReproduction(t *testing.T) {
	// An attempt whose stored outcome matches the current oracle must
	// re-execute: Order must always come from a fresh run, and an
	// oracle change between searches must re-judge cached failures.
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	cache := NewSearchCache(0)
	// First search: oracle rejects everything, so the bug-manifesting
	// attempts' failures enter the cache as "other".
	none := Replay(prog, rec, ReplayOptions{
		Feedback: true, Oracle: func(*sched.Failure) bool { return false },
		MaxAttempts: 40, Workers: 1, Cache: cache,
	})
	if none.Reproduced {
		t.Fatal("never-oracle reproduced")
	}
	// Second search with the real oracle shares the cache: hits are fine
	// for genuinely failed attempts, but the reproduction must come from
	// an execution with a captured order.
	res := Replay(prog, rec, ReplayOptions{
		Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1, Cache: cache,
	})
	if !res.Reproduced {
		t.Fatalf("search failed: %+v", res.Stats)
	}
	if res.Order == nil || len(res.Order.Order) == 0 {
		t.Fatal("reproduction has no captured order — was it served from cache?")
	}
	if out := Reproduce(prog, rec, res.Order); out.Failure == nil || out.Failure.BugID != "atom-bug" {
		t.Fatalf("captured order lost the bug: %v", out.Failure)
	}
}

func TestSearchDedupRaceStress(t *testing.T) {
	// Satellite 4: the dedup set and commit path are mutated only under
	// the search mutex, and the schedule cache is shared across
	// concurrent searches. Hammer both from several full searches at
	// Workers: 8 — the -race gate (make stress runs this with -count=2)
	// must stay silent, and every search must behave.
	if testing.Short() {
		t.Skip("stress test")
	}
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	cache := NewSearchCache(512)
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			oracle := MatchBugID("atom-bug")
			budget := 0 // full budget for reproducing searches
			if i%2 == 1 {
				// Odd searches never match: they exercise exhaustion,
				// frontier drying and heavy cache stores concurrently.
				oracle = func(*sched.Failure) bool { return false }
				budget = 60
			}
			res := Replay(prog, rec, ReplayOptions{
				Feedback: true, Oracle: oracle, MaxAttempts: budget,
				Workers: 8, Cache: cache,
			})
			if i%2 == 0 && !res.Reproduced {
				done <- fmt.Errorf("search %d failed to reproduce: %+v", i, res.Stats)
				return
			}
			if i%2 == 1 && res.Reproduced {
				done <- fmt.Errorf("search %d reproduced against a never-oracle", i)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := cache.Stats(); hits+misses == 0 {
		t.Fatal("shared cache saw no traffic")
	}
}
