package dod

import (
	"testing"

	"repro/internal/relation"
)

// TestSubJoinMemoHits checks that one Build whose candidates share a join
// prefix actually reuses it: the paper scenario's want {a,b,d} yields both an
// s1-only candidate and an s1⋈s2 candidate, which share the "base:s1" prefix.
func TestSubJoinMemoHits(t *testing.T) {
	_, eng := paperScenario(t)
	inv, r2, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
	if err != nil || r2 < 0.999 {
		t.Fatalf("affine inference failed: %v r2=%v", err, r2)
	}
	eng.RegisterTransform("s2", "f_d", "d", inv)

	if got := eng.CacheStats().SubJoinHits; got != 0 {
		t.Fatalf("fresh engine reports %d subjoin hits", got)
	}
	cands, err := eng.Build(Want{Columns: []string{"a", "b", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("expected multiple candidates, got %d", len(cands))
	}
	if got := eng.CacheStats().SubJoinHits; got == 0 {
		t.Fatal("build with shared candidate prefixes recorded no sub-join memo hits")
	}
}

// TestBuildStreamCounters pins what one build of the paper scenario adds to
// relation's process-wide stream counters: each join prefix is one
// materialization (it is memoized for sibling candidates), and everything
// after the last join — maps, renames and the projection — is one pipeline
// drained once per candidate.
func TestBuildStreamCounters(t *testing.T) {
	_, eng := paperScenario(t)
	inv, _, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterTransform("s2", "f_d", "d", inv)
	rows0, mats0 := relation.StreamCounters()
	if _, err := eng.Build(Want{Columns: []string{"a", "b", "d"}}); err != nil {
		t.Fatal(err)
	}
	rows1, mats1 := relation.StreamCounters()
	// Three candidates of 120 rows each: s2⋈s1 (the join, then its tail),
	// s2 alone (b_prime renamed to b) and s1 alone: 480 rows in 4
	// materializations. Per-stage materialization cost 600 rows in 5.
	if rows, mats := rows1-rows0, mats1-mats0; rows != 480 || mats != 4 {
		t.Fatalf("one build streamed %d rows in %d materializations, want 480 in 4", rows, mats)
	}
}

// TestSubJoinMemoDeterministic confirms the memo is an optimization only:
// two fresh engines over the same catalog produce identical candidates.
func TestSubJoinMemoDeterministic(t *testing.T) {
	mk := func() []Candidate {
		_, eng := paperScenario(t)
		inv, _, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterTransform("s2", "f_d", "d", inv)
		cands, err := eng.Build(Want{Columns: []string{"a", "b", "d"}})
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Coverage != b[i].Coverage {
			t.Fatalf("candidate %d coverage %v vs %v", i, a[i].Coverage, b[i].Coverage)
		}
		if !a[i].Rel().Equal(b[i].Rel()) {
			t.Fatalf("candidate %d relations diverge:\n%s\nvs\n%s", i, a[i].Rel(), b[i].Rel())
		}
	}
}
