package index

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/profile"
	"repro/internal/relation"
)

// mkProfiles builds three datasets: orders(order_id, cust_id, total),
// customers(cust_id, name), weather(day, temp) — orders.cust_id and
// customers.cust_id share content.
func mkProfiles() []*profile.DatasetProfile {
	orders := relation.New("orders", relation.NewSchema(
		relation.Col("order_id", relation.KindInt),
		relation.Col("cust_id", relation.KindInt),
		relation.Col("total", relation.KindFloat),
	))
	customers := relation.New("customers", relation.NewSchema(
		relation.Col("cust_id", relation.KindInt),
		relation.Col("name", relation.KindString),
	))
	weather := relation.New("weather", relation.NewSchema(
		relation.Col("day", relation.KindString),
		relation.Col("temp", relation.KindFloat),
	))
	for i := 0; i < 200; i++ {
		orders.MustAppend(relation.Int(int64(i)), relation.Int(int64(i%50)), relation.Float(float64(i)*1.5))
	}
	for i := 0; i < 50; i++ {
		customers.MustAppend(relation.Int(int64(i)), relation.String_(fmt.Sprintf("cust%d", i)))
	}
	days := []string{"mon", "tue", "wed"}
	for i := 0; i < 30; i++ {
		weather.MustAppend(relation.String_(days[i%3]), relation.Float(float64(10+i%5)))
	}
	return []*profile.DatasetProfile{
		profile.Profile("orders", orders),
		profile.Profile("customers", customers),
		profile.Profile("weather", weather),
	}
}

func TestBuildFindsJoinEdge(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	edges := ix.Edges()
	found := false
	for _, e := range edges {
		cols := map[string]bool{e.A.Dataset + "." + e.A.Column: true, e.B.Dataset + "." + e.B.Column: true}
		if cols["orders.cust_id"] && cols["customers.cust_id"] {
			found = true
			if e.Containment < 0.5 {
				t.Errorf("cust_id containment = %v, want high (customers ⊆ orders keys)", e.Containment)
			}
		}
	}
	if !found {
		t.Fatalf("join edge orders.cust_id ↔ customers.cust_id not found in %d edges", len(edges))
	}
}

func TestExhaustiveMatchesLSHOnStrongEdges(t *testing.T) {
	profiles := mkProfiles()
	cfgLSH := DefaultConfig()
	cfgEx := DefaultConfig()
	cfgEx.Exhaustive = true
	lsh := Build(cfgLSH, profiles)
	ex := Build(cfgEx, profiles)
	// Every strong edge (jaccard >= 0.5) found exhaustively must be found by
	// LSH too (with 16 bands of 4 rows, P[detect | j=0.5] ≈ 1-(1-0.0625)^16 ≈ 0.64
	// per band row group — in practice identical columns always collide).
	for _, e := range ex.Edges() {
		if e.Jaccard < 0.9 {
			continue
		}
		ok := false
		for _, le := range lsh.Edges() {
			if le.A == e.A && le.B == e.B || le.A == e.B && le.B == e.A {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("LSH missed near-identical edge %v <-> %v (j=%.2f)", e.A, e.B, e.Jaccard)
		}
	}
}

func TestNoSelfEdges(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.Edges() {
		if e.A.Dataset == e.B.Dataset {
			t.Errorf("self edge %v <-> %v", e.A, e.B)
		}
	}
}

func TestKindMatching(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.Edges() {
		pa := ix.Profile(e.A.Dataset).Column(e.A.Column)
		pb := ix.Profile(e.B.Dataset).Column(e.B.Column)
		num := func(k relation.Kind) bool { return k == relation.KindInt || k == relation.KindFloat }
		if pa.Kind != pb.Kind && !(num(pa.Kind) && num(pb.Kind)) {
			t.Errorf("edge between incompatible kinds %v/%v", pa.Kind, pb.Kind)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"cust_id", []string{"cust", "id"}},
		{"CustomerName", []string{"customer", "name"}},
		{"temp-f", []string{"temp", "f"}},
		{"abc123", []string{"abc123"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestLookup(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	refs := ix.Lookup("cust")
	if len(refs) < 2 {
		t.Fatalf("lookup(cust) = %v, want orders+customers columns", refs)
	}
	if len(ix.Lookup("zzz_nothing")) != 0 {
		t.Error("unknown token must return nothing")
	}
}

func TestIncrementalAdd(t *testing.T) {
	profiles := mkProfiles()
	ix := Build(DefaultConfig(), profiles[:2])
	before := ix.NumEdges()
	ix.Add(profiles[2]) // weather: unrelated, should not add cust edges
	if len(ix.Datasets()) != 3 {
		t.Errorf("datasets = %v", ix.Datasets())
	}
	// Re-add an updated version of customers: no duplicate edges.
	ix.Add(profiles[1])
	if got := ix.NumEdges(); got < before {
		t.Errorf("edges dropped after re-add: %d < %d", got, before)
	}
	for _, e := range ix.Edges() {
		if e.A.Dataset == e.B.Dataset {
			t.Error("self edge after incremental add")
		}
	}
}

func TestEdgesFor(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.EdgesFor("orders") {
		if e.A.Dataset != "orders" && e.B.Dataset != "orders" {
			t.Errorf("EdgesFor(orders) returned foreign edge %v", e)
		}
	}
	if len(ix.EdgesFor("ghost")) != 0 {
		t.Error("unknown dataset has no edges")
	}
}

// TestEdgesForTieOrderIgnoresUnrelatedEdges: every exact key↔key edge ties at
// Jaccard 1.0, and the DoD beam search breaks its own ties by EdgesFor's
// order. With more than 12 edges an unstable sort reorders the ties depending
// on the slice length, so sharing — or re-indexing — an unrelated dataset
// that merely joins the same key column could change which join path a build
// takes. Ties must keep their indexing order.
func TestEdgesForTieOrderIgnoresUnrelatedEdges(t *testing.T) {
	keyed := func(id string, rows int) *profile.DatasetProfile {
		r := relation.New(id, relation.NewSchema(
			relation.Col("k", relation.KindInt), relation.Col("k2", relation.KindInt)))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Int(int64(i)))
		}
		return profile.Profile(id, r)
	}
	// spokes lists hub's edges as "far-dataset far-column hub-column", leaving
	// out the unrelated dataset's own.
	spokes := func(ix *Index) []string {
		var out []string
		for _, e := range ix.EdgesFor("hub") {
			near, far := e.A, e.B
			if near.Dataset != "hub" {
				near, far = far, near
			}
			if far.Dataset != "late" {
				out = append(out, fmt.Sprintf("%.2f %s %s %s", 1-e.Jaccard, far.Dataset, far.Column, near.Column))
			}
		}
		return out
	}
	ix := Build(DefaultConfig(), nil)
	ix.Add(keyed("hub", 40))
	for n := 1; n <= 20; n++ {
		// Every third spoke holds only part of the key range, so its edges
		// score lower and the sort has real work to do between the ties.
		rows := 40
		if n%3 == 0 {
			rows = 25
		}
		ix.Add(keyed(fmt.Sprintf("s%02d", n), rows))
		before := spokes(ix)
		if len(before) != 4*n {
			t.Fatalf("%d spokes: hub has %d edges, want %d", n, len(before), 4*n)
		}
		// Spokes are indexed in name order, so "by Jaccard, ties in indexing
		// order" is the sorted order of the descriptions.
		if !sort.StringsAreSorted(before) {
			t.Fatalf("%d spokes: ties not in indexing order: %q", n, before)
		}
		for _, why := range []string{"adding", "re-indexing"} {
			ix.Add(keyed("late", 40)) // an unrelated dataset joining the same key
			if got := spokes(ix); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Fatalf("%d spokes: %s an unrelated dataset reordered the ties:\n%q\n%q", n, why, before, got)
			}
		}
		ix.remove("late")
	}
}
