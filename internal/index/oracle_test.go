package index

// TestIndexAddOracle: Add, which compares a new dataset's columns only with
// the columns sharing a sketch slot value with them, builds exactly the index
// the pairwise Add did, which compared them with every stored column. Random
// catalogs are shared, re-shared, updated and removed one step at a time, and
// after every step both indexes must answer Edges, EdgesFor, Lookup and
// Datasets identically.
//
// The fixed seeds keep CI deterministic; INDEX_ORACLE_EXTRA_SEEDS=N adds N
// time-derived seeds (every seed is in its subtest's name and its failures).

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/relation"
)

// pairwiseAdd is Add as it was before the slot postings: the new dataset's
// columns against every stored column, datasets in name order. It works on
// the fields the queries read and never touches ix.slots.
func pairwiseAdd(ix *Index, dp *profile.DatasetProfile) {
	if _, ok := ix.profiles[dp.Dataset]; ok {
		pairwiseRemove(ix, dp.Dataset)
	}
	existing := make([]*profile.DatasetProfile, 0, len(ix.profiles))
	for _, other := range ix.profiles {
		existing = append(existing, other)
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i].Dataset < existing[j].Dataset })
	ix.profiles[dp.Dataset] = dp
	for i := range dp.Columns {
		cp := &dp.Columns[i]
		ref := ColRef{dp.Dataset, cp.Column}
		seen := map[string]bool{}
		add := func(tok string) {
			if tok == "" || seen[tok] {
				return
			}
			seen[tok] = true
			ix.tokens[tok] = append(ix.tokens[tok], ref)
		}
		for _, tok := range Tokenize(cp.Column) {
			add(tok)
		}
		add(strings.ToLower(cp.Column))
		for _, v := range cp.TopValues {
			for _, tok := range Tokenize(v) {
				add(tok)
			}
		}
	}
	for i := range dp.Columns {
		for _, other := range existing {
			for j := range other.Columns {
				pairwiseTryEdge(ix, &dp.Columns[i], &other.Columns[j])
			}
		}
	}
}

// pairwiseRemove is remove as it was: every token list scanned, emptied keys
// left behind.
func pairwiseRemove(ix *Index, dataset string) {
	delete(ix.profiles, dataset)
	for tok, refs := range ix.tokens {
		out := refs[:0]
		for _, r := range refs {
			if r.Dataset != dataset {
				out = append(out, r)
			}
		}
		ix.tokens[tok] = out
	}
	var kept []JoinEdge
	for _, e := range ix.edges {
		if e.A.Dataset != dataset && e.B.Dataset != dataset {
			kept = append(kept, e)
		}
	}
	ix.edges = kept
	ix.byDS = map[string][]int{}
	for i, e := range ix.edges {
		ix.byDS[e.A.Dataset] = append(ix.byDS[e.A.Dataset], i)
		ix.byDS[e.B.Dataset] = append(ix.byDS[e.B.Dataset], i)
	}
}

// pairwiseTryEdge is tryEdge as it was: the Jaccard estimate computed once
// for the threshold and once more inside each containment direction.
func pairwiseTryEdge(ix *Index, a, b *profile.ColumnProfile) {
	if a.Dataset == b.Dataset {
		return
	}
	if ix.cfg.RequireKindMatch && !kindsJoinable(a, b) {
		return
	}
	if a.Distinct < ix.cfg.MinDistinct || b.Distinct < ix.cfg.MinDistinct {
		return
	}
	j := a.Sketch.Jaccard(&b.Sketch)
	if j < ix.cfg.MinJaccard {
		return
	}
	containment := func(a, b *profile.ColumnProfile) float64 {
		if a.Distinct == 0 {
			return 0
		}
		j := a.Sketch.Jaccard(&b.Sketch)
		if j == 0 {
			return 0
		}
		inter := j * float64(a.Distinct+b.Distinct) / (1 + j)
		c := inter / float64(a.Distinct)
		if c > 1 {
			c = 1
		}
		return c
	}
	c := containment(a, b)
	if cba := containment(b, a); cba > c {
		c = cba
	}
	e := JoinEdge{A: ColRef{a.Dataset, a.Column}, B: ColRef{b.Dataset, b.Column}, Jaccard: j, Containment: c}
	ix.edges = append(ix.edges, e)
	ix.byDS[e.A.Dataset] = append(ix.byDS[e.A.Dataset], len(ix.edges)-1)
	ix.byDS[e.B.Dataset] = append(ix.byDS[e.B.Dataset], len(ix.edges)-1)
}

func indexOracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if v := os.Getenv("INDEX_ORACLE_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad INDEX_ORACLE_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

// oracleRelation draws one dataset. Its columns take values from a few shared
// domains, so columns of different datasets overlap by anything from nothing
// to everything and Jaccard estimates land on both sides of MinJaccard;
// ints and floats share keys (2 and 2.0), so int↔float edges occur. Some
// columns have too few distinct values to join, some are all NULL, and some
// relations are empty.
func oracleRelation(rng *rand.Rand, name string) *relation.Relation {
	kinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString}
	var schema relation.Schema
	for c := 0; c < 1+rng.Intn(4); c++ {
		word := []string{"key", "city", "price", "day"}[rng.Intn(4)]
		schema = append(schema, relation.Col(fmt.Sprintf("%s_%d", word, c), kinds[rng.Intn(len(kinds))]))
	}
	r := relation.New(name, schema)
	type domain struct{ lo, n int }
	doms := make([]domain, len(schema))
	nulls := make([]bool, len(schema))
	for c := range doms {
		doms[c] = domain{lo: 10 * rng.Intn(8), n: 3 + rng.Intn(60)} // n < MinDistinct sometimes
		nulls[c] = rng.Intn(8) == 0
	}
	rows := 0
	if rng.Intn(10) > 0 {
		rows = 1 + rng.Intn(80)
	}
	for i := 0; i < rows; i++ {
		row := make([]relation.Value, len(schema))
		for c, col := range schema {
			v := doms[c].lo + rng.Intn(doms[c].n)
			switch {
			case nulls[c]:
				row[c] = relation.Null()
			case col.Kind == relation.KindInt:
				row[c] = relation.Int(int64(v))
			case col.Kind == relation.KindFloat:
				row[c] = relation.Float(float64(v))
			default:
				row[c] = relation.String_(fmt.Sprintf("v%d", v))
			}
		}
		r.MustAppend(row...)
	}
	return r
}

// update returns a new version of r overlapping the old one: about a tenth of
// its rows dropped, and about a tenth repeated with every value shifted.
func update(rng *rand.Rand, r *relation.Relation) *relation.Relation {
	out := relation.New(r.Name, r.Schema)
	for _, row := range r.Rows {
		if rng.Intn(10) == 0 {
			continue
		}
		out.MustAppend(row...)
		if rng.Intn(10) > 0 {
			continue
		}
		shifted := make([]relation.Value, len(row))
		for c, v := range row {
			switch v.Kind() {
			case relation.KindInt:
				shifted[c] = relation.Int(v.AsInt() + 1)
			case relation.KindFloat:
				shifted[c] = relation.Float(v.AsFloat() + 1)
			case relation.KindString:
				shifted[c] = relation.String_(v.AsString() + "x")
			}
		}
		out.MustAppend(shifted...)
	}
	return out
}

func TestIndexAddOracle(t *testing.T) {
	for _, seed := range indexOracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got, want := Build(DefaultConfig(), nil), Build(DefaultConfig(), nil)
			rels := map[string]*relation.Relation{}
			var names []string // ever shared, so removed names come back
			for step := 0; step < 120; step++ {
				var op, name string
				switch n := rng.Intn(20); {
				case n < 12 || len(names) == 0:
					op, name = "share", fmt.Sprintf("d%02d", len(names))
					names = append(names, name)
					rels[name] = oracleRelation(rng, name)
				case n < 15:
					op, name = "re-share", names[rng.Intn(len(names))]
					rels[name] = oracleRelation(rng, name)
				case n < 18:
					op, name = "update", names[rng.Intn(len(names))]
					if rels[name] == nil {
						continue
					}
					rels[name] = update(rng, rels[name])
				default:
					op, name = "remove", names[rng.Intn(len(names))]
				}
				where := fmt.Sprintf("seed %d step %d (%s %s)", seed, step, op, name)
				if op == "remove" {
					if rels[name] == nil {
						continue
					}
					delete(rels, name)
					got.remove(name)
					pairwiseRemove(want, name)
				} else {
					dp := profile.Profile(name, rels[name])
					got.Add(dp)
					pairwiseAdd(want, dp)
				}
				compareIndexes(t, where, got, want, names)
			}
		})
	}
}

// compareIndexes asserts got answers every query as want does, and that got
// holds no emptied token key and posts exactly its joinable columns.
func compareIndexes(t *testing.T, where string, got, want *Index, names []string) {
	t.Helper()
	if g, w := got.Datasets(), want.Datasets(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Datasets() = %v, want %v", where, g, w)
	}
	if g, w := got.Edges(), want.Edges(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Edges() differ:\n got %v\nwant %v", where, g, w)
	}
	for _, ds := range names {
		if g, w := got.EdgesFor(ds), want.EdgesFor(ds); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: EdgesFor(%s) differ:\n got %v\nwant %v", where, ds, g, w)
		}
	}
	for tok := range want.tokens {
		if g, w := got.Lookup(tok), want.Lookup(tok); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Lookup(%q) = %v, want %v", where, tok, g, w)
		}
	}
	for tok, refs := range got.tokens {
		if len(refs) == 0 {
			t.Fatalf("%s: token %q left behind with no columns", where, tok)
		}
	}
	joinable := 0
	for _, dp := range got.profiles {
		for i := range dp.Columns {
			if got.joinable(&dp.Columns[i]) {
				joinable++
			}
		}
	}
	posted := 0
	for s, heads := range got.slots.heads {
		for _, o := range heads {
			for ; o >= 0; o = got.slots.next[o][s] {
				if c := got.slots.cols[o]; c.dp == nil || got.profiles[c.dp.Dataset] != c.dp {
					t.Fatalf("%s: slot %d posts ordinal %d, which is free or stale", where, s, o)
				}
				posted++
			}
		}
	}
	if live := len(got.slots.cols) - len(got.slots.free); live != joinable || posted != joinable*profile.MinHashSize {
		t.Fatalf("%s: %d ordinals live and %d postings for %d joinable columns (want %d postings)",
			where, live, posted, joinable, joinable*profile.MinHashSize)
	}
}
