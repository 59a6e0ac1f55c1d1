package dod

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestWantKeyAndFingerprint(t *testing.T) {
	a := Want{Columns: []string{"b", "a"}}
	b := Want{Columns: []string{"a", "b"}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for same column set: %q vs %q", a.Key(), b.Key())
	}
	// Column order shapes the projection, so fingerprints must differ even
	// when keys collide.
	if a.fingerprint() == b.fingerprint() {
		t.Error("fingerprints identical for different column orders")
	}
	withAlias := Want{Columns: []string{"a", "b"}, Aliases: map[string][]string{"b": {"b_prime"}}}
	if withAlias.fingerprint() == b.fingerprint() {
		t.Error("fingerprints identical despite different aliases")
	}
	if withAlias.Key() != b.Key() {
		t.Error("aliases must not change the group key")
	}
}

// TestCandidateCacheTable is the hit/stale/invalidation table: each step
// performs one cache interaction and asserts the counter it must move.
func TestCandidateCacheTable(t *testing.T) {
	_, eng := paperScenario(t)
	want := Want{Columns: []string{"a", "b"}}

	steps := []struct {
		name     string
		run      func(t *testing.T)
		hits     uint64
		stale    uint64
		misses   uint64
		retained uint64
	}{
		{
			name: "cold build is a miss",
			run: func(t *testing.T) {
				cs := eng.BuildCached(context.Background(), want)
				if cs.Err != "" || len(cs.Candidates) == 0 {
					t.Fatalf("build failed: %q", cs.Err)
				}
				if cs.Version.Load() != eng.CatalogVersion() {
					t.Fatalf("set stamped version %d, catalog at %d", cs.Version.Load(), eng.CatalogVersion())
				}
			},
			misses: 1,
		},
		{
			name: "repeat is a hit",
			run: func(t *testing.T) {
				first := eng.BuildCached(context.Background(), want)
				again := eng.BuildCached(context.Background(), want)
				if again != first {
					t.Error("hit did not return the cached set")
				}
			},
			hits: 2, // the lookup inside the step body runs twice
		},
		{
			name: "same key, different want is a miss",
			run: func(t *testing.T) {
				aliased := Want{Columns: []string{"a", "b"}, Aliases: map[string][]string{"b": {"b_prime"}}}
				if aliased.Key() != want.Key() {
					t.Fatal("fixture broken: keys must collide")
				}
				eng.BuildCached(context.Background(), aliased)
			},
			misses: 1,
		},
		{
			name: "mutating a provider invalidates",
			run: func(t *testing.T) {
				eng.BuildCached(context.Background(), want) // re-own the slot after the alias build
				before := eng.BuildCached(context.Background(), want)
				ver := eng.MutateCatalog("s1", func() bool { return true })
				if eng.Valid(before, want) {
					t.Error("set still valid after its provider s1 was touched")
				}
				after := eng.BuildCached(context.Background(), want)
				if after == before {
					t.Error("stale set served after catalog mutation")
				}
				if after.Version.Load() != ver {
					t.Errorf("rebuilt set stamped %d, want %d", after.Version.Load(), ver)
				}
			},
			hits:   1, // the "before" lookup
			stale:  1, // the rebuild after the bump
			misses: 1, // re-owning the slot from the aliased want
		},
		{
			name: "mutating an unrelated dataset retains",
			run: func(t *testing.T) {
				before := eng.BuildCached(context.Background(), want)
				ver := eng.MutateCatalog("nobody/d", func() bool { return true })
				if !eng.Valid(before, want) || before.Version.Load() != ver {
					t.Errorf("set not carried to version %d by an unrelated mutation (stamp %d)", ver, before.Version.Load())
				}
				if after := eng.BuildCached(context.Background(), want); after != before {
					t.Error("retained set was rebuilt")
				}
			},
			hits:     2,
			retained: 1,
		},
		{
			name: "a stale set is never promoted",
			run: func(t *testing.T) {
				laggard := eng.BuildCached(context.Background(), want)
				eng.MutateCatalog("s2", func() bool { return true }) // s2 provides a: stale
				eng.MutateCatalog("nobody/d", func() bool { return true })
				if eng.Valid(laggard, want) {
					t.Error("unrelated mutation promoted a set that was already stale")
				}
				if after := eng.BuildCached(context.Background(), want); after == laggard {
					t.Error("stale set served")
				}
			},
			hits:  1,
			stale: 1,
		},
		{
			name: "transform registration invalidates",
			run: func(t *testing.T) {
				before := eng.BuildCached(context.Background(), want)
				inv, _, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
				if err != nil {
					t.Fatal(err)
				}
				eng.RegisterTransform("s2", "f_d", "d", inv)
				if eng.Valid(before, want) {
					t.Error("set still valid after RegisterTransform")
				}
			},
			hits:  1,
			stale: 0,
		},
		{
			name: "build failures cache too",
			run: func(t *testing.T) {
				hopeless := Want{Columns: []string{"no", "such", "columns"}}
				first := eng.BuildCached(context.Background(), hopeless)
				if first.Err == "" || len(first.Candidates) != 0 {
					t.Fatalf("expected a failed build, got %d candidates", len(first.Candidates))
				}
				if again := eng.BuildCached(context.Background(), hopeless); again != first {
					t.Error("failed build not served from cache")
				}
			},
			misses: 1,
			hits:   1,
		},
	}

	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			before := eng.CacheStats()
			step.run(t)
			after := eng.CacheStats()
			if got := after.Hits - before.Hits; got != step.hits {
				t.Errorf("hits moved %d, want %d", got, step.hits)
			}
			if got := after.Stale - before.Stale; got != step.stale {
				t.Errorf("stale moved %d, want %d", got, step.stale)
			}
			if got := after.Misses - before.Misses; got != step.misses {
				t.Errorf("misses moved %d, want %d", got, step.misses)
			}
			if got := after.Retained - before.Retained; got != step.retained {
				t.Errorf("retained moved %d, want %d", got, step.retained)
			}
		})
	}

	if st := eng.CacheStats(); st.Builds == 0 || st.BuildMillis < 0 {
		t.Errorf("build accounting missing: %+v", st)
	}
}

// TestCachedSetMatchesFreshBuild pins the equivalence the pipelined engine
// relies on: a version-valid cached set is exactly what an inline build
// would produce.
func TestCachedSetMatchesFreshBuild(t *testing.T) {
	_, eng := paperScenario(t)
	want := Want{Columns: []string{"a", "b"}}
	cached := eng.BuildCached(context.Background(), want)
	fresh, err := eng.Build(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Candidates) != len(fresh) {
		t.Fatalf("cached %d candidates, fresh %d", len(cached.Candidates), len(fresh))
	}
	for i := range fresh {
		c, f := cached.Candidates[i], fresh[i]
		if fmt.Sprint(c.Datasets) != fmt.Sprint(f.Datasets) || c.Coverage != f.Coverage ||
			c.Quality != f.Quality || c.Rel().NumRows() != f.Rel().NumRows() {
			t.Errorf("candidate %d diverges: cached %v/%v/%v, fresh %v/%v/%v",
				i, c.Datasets, c.Coverage, c.Quality, f.Datasets, f.Coverage, f.Quality)
		}
	}
}

// TestNoOpMutationKeepsCacheWarm: a mutation that reports "not applied"
// (e.g. a rejected catalog update) must not bump the version — flushing the
// whole candidate cache for a no-op would let erroneous retries degrade
// every round to synchronous build cost.
func TestNoOpMutationKeepsCacheWarm(t *testing.T) {
	_, eng := paperScenario(t)
	want := Want{Columns: []string{"a", "b"}}
	cs := eng.BuildCached(context.Background(), want)
	before := eng.CatalogVersion()
	if got := eng.MutateCatalog("s1", func() bool { return false }); got != before {
		t.Fatalf("no-op mutation bumped version %d -> %d", before, got)
	}
	if !eng.Valid(cs, want) {
		t.Error("cached set invalidated by a no-op mutation")
	}
	hits := eng.CacheStats().Hits
	if again := eng.BuildCached(context.Background(), want); again != cs {
		t.Error("cache missed after a no-op mutation")
	}
	if eng.CacheStats().Hits != hits+1 {
		t.Error("post-no-op lookup was not a hit")
	}
}

// TestSingleflightDedupsConcurrentBuilds: concurrent BuildCached calls for
// the same want at the same version share one beam search.
func TestSingleflightDedupsConcurrentBuilds(t *testing.T) {
	_, eng := paperScenario(t)
	want := Want{Columns: []string{"a", "b"}}
	const callers = 8
	results := make([]*CandidateSet, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.BuildCached(context.Background(), want)
		}(i)
	}
	wg.Wait()
	for i, cs := range results {
		if cs == nil || cs.Err != "" || len(cs.Candidates) == 0 {
			t.Fatalf("caller %d got a bad set: %+v", i, cs)
		}
		if cs != results[0] {
			t.Errorf("caller %d got a different set instance", i)
		}
	}
	if st := eng.CacheStats(); st.Builds != 1 {
		t.Errorf("builds = %d, want 1 (singleflight)", st.Builds)
	}
}
