package dod

import (
	"context"
	"fmt"
	"testing"
)

// distinctWant makes the i-th distinct cache key: single wanted columns with
// unique names. Most fail to build (no owner), but failed builds cache too,
// so each occupies one slot.
func distinctWant(i int) Want {
	return Want{Columns: []string{fmt.Sprintf("col_%02d", i)}}
}

// TestCacheBoundUnderChurn pins CacheConfig.MaxEntries: a churn of distinct
// wants never grows the cache past the bound, and the evictions counter
// accounts for every dropped entry.
func TestCacheBoundUnderChurn(t *testing.T) {
	_, eng := paperScenario(t)
	const max = 4
	eng.SetCacheConfig(CacheConfig{MaxEntries: max})

	const churn = 20
	for i := 0; i < churn; i++ {
		eng.BuildCached(context.Background(), distinctWant(i))
		if got := eng.CacheStats().Entries; got > max {
			t.Fatalf("after build %d: %d entries, bound is %d", i, got, max)
		}
	}
	st := eng.CacheStats()
	if st.Entries != max {
		t.Fatalf("entries = %d, want the bound %d", st.Entries, max)
	}
	if want := uint64(churn - max); st.Evictions != want {
		t.Fatalf("evictions = %d, want %d", st.Evictions, want)
	}

	// Shrinking the bound via SetCacheConfig enforces immediately.
	eng.SetCacheConfig(CacheConfig{MaxEntries: 2})
	st = eng.CacheStats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d after shrinking bound to 2", st.Entries)
	}
	if want := uint64(churn - 2); st.Evictions != want {
		t.Fatalf("evictions = %d after shrink, want %d", st.Evictions, want)
	}

	// Unbounded again: churn grows freely.
	eng.SetCacheConfig(CacheConfig{})
	for i := churn; i < churn+4; i++ {
		eng.BuildCached(context.Background(), distinctWant(i))
	}
	if got := eng.CacheStats().Entries; got != 6 {
		t.Fatalf("entries = %d with bound removed, want 6", got)
	}
}

// TestCacheEvictionPrefersStale pins the eviction order: version-stale
// entries go before fresh ones regardless of recency, so a catalog bump
// followed by new demand cannot evict the entries that are still valid.
func TestCacheEvictionPrefersStale(t *testing.T) {
	_, eng := paperScenario(t)
	eng.SetCacheConfig(CacheConfig{MaxEntries: 3})

	// Two entries at the current version...
	a, b := Want{Columns: []string{"a"}}, Want{Columns: []string{"b"}}
	eng.BuildCached(context.Background(), a)
	eng.BuildCached(context.Background(), b)
	// ...then a mutation of s1, which provides both, strands them at the old
	// version.
	eng.MutateCatalog("s1", func() bool { return true })

	// Two fresh builds push the population to 4 > 3: the eviction must take
	// a stale entry, never the just-built fresh ones.
	c, d := Want{Columns: []string{"c"}}, Want{Columns: []string{"a", "b"}}
	eng.BuildCached(context.Background(), c)
	eng.BuildCached(context.Background(), d)

	st := eng.CacheStats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	base := st.Hits
	eng.BuildCached(context.Background(), c)
	eng.BuildCached(context.Background(), d)
	if got := eng.CacheStats().Hits; got != base+2 {
		t.Fatalf("fresh entries did not survive stale-first eviction: hits %d -> %d", base, got)
	}

	// One more fresh build flushes the second stale entry, leaving
	// {c, d, e} — all fresh.
	eng.BuildCached(context.Background(), Want{Columns: []string{"b", "c"}})
	if got := eng.CacheStats().Evictions; got != 2 {
		t.Fatalf("evictions = %d after flushing stale entries, want 2", got)
	}

	// With no stale entries left, eviction is cost-weighted: the entry
	// cheapest to rebuild goes first, regardless of recency. Pin the
	// recorded build costs directly (white box — wall-clock measurements
	// are not deterministic enough to order on): d is free to rebuild,
	// everything else expensive.
	eng.cacheMu.Lock()
	for key, cs := range eng.cache {
		if key == d.Key() {
			cs.BuildMillis = 0
		} else {
			cs.BuildMillis = 50
		}
	}
	eng.cacheMu.Unlock()
	eng.BuildCached(context.Background(), d) // recency must not save a cheap entry
	eng.BuildCached(context.Background(), Want{Columns: []string{"a", "c"}})
	if got := eng.CacheStats().Entries; got != 3 {
		t.Fatalf("entries = %d after cost-weighted eviction, want 3", got)
	}
	hitBase := eng.CacheStats().Hits
	eng.BuildCached(context.Background(), c) // expensive entry must have survived
	if got := eng.CacheStats().Hits; got != hitBase+1 {
		t.Fatalf("expensive entry did not survive cost-weighted eviction: hits %d -> %d", hitBase, got)
	}
	missBase := eng.CacheStats().Misses
	eng.BuildCached(context.Background(), d) // evicted: rebuild is a miss
	if got := eng.CacheStats().Misses; got != missBase+1 {
		t.Fatalf("expected the cheapest entry to be evicted and rebuild as a miss (misses %d -> %d)", missBase, got)
	}
}
