package provenance

// Lineage join oracle: the frozen reference tags each input row with a
// hidden ordinal column, runs the plain relational hash join, reads every
// output row's lineage off the surviving ordinals, and strips them. The
// package itself reads join ordinals off relation's hash join, so this test
// is what proves rows, names and lineage come out the same either way.

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/relation"
)

func legacyProvHashJoin(l, r *Annotated, on ...relation.JoinPair) (*Annotated, error) {
	l.check()
	r.check()
	// One materialized stage at a time, as the eager operators ran.
	lt, _ := relation.Materialize(relation.NewAddColumn(relation.NewScan(l.Rel), relation.Col("__lrow", relation.KindInt), legacyOrdinal()))
	rt, _ := relation.Materialize(relation.NewAddColumn(relation.NewScan(r.Rel), relation.Col("__rrow", relation.KindInt), legacyOrdinal()))
	jit, err := relation.NewHashJoin(relation.NewScan(lt), relation.NewScan(rt), l.Rel.Name, r.Rel.Name, on...)
	if err != nil {
		return nil, err
	}
	j, err := relation.Materialize(jit)
	if err != nil {
		return nil, err
	}
	li := j.Schema.IndexOf("__lrow")
	ri := j.Schema.IndexOf("__rrow")
	out := &Annotated{}
	keep := make([]string, 0, len(j.Schema)-2)
	for _, c := range j.Schema {
		if c.Name != "__lrow" && c.Name != "__rrow" {
			keep = append(keep, c.Name)
		}
	}
	pit, err := relation.NewProject(relation.NewScan(j), keep...)
	if err != nil {
		return nil, err
	}
	stripped, err := relation.Materialize(pit)
	if err != nil {
		return nil, err
	}
	stripped.Name = l.Rel.Name + "⋈" + r.Rel.Name
	out.Rel = stripped
	out.Lineage = make([]Lineage, len(j.Rows))
	for i, row := range j.Rows {
		out.Lineage[i] = merge(l.Lineage[row[li].AsInt()], r.Lineage[row[ri].AsInt()])
	}
	return out, nil
}

func legacyOrdinal() func(row []relation.Value, s relation.Schema) relation.Value {
	i := -1
	return func([]relation.Value, relation.Schema) relation.Value {
		i++
		return relation.Int(int64(i))
	}
}

// randAnnotated builds a source-annotated relation over small key domains
// (duplicate build keys) with occasional null keys. Every source has "g" and
// "v", and some also "v_r", so chained joins walk the "_r" suffix cascade.
func randAnnotated(rng *rand.Rand, dataset string) *Annotated {
	schema := relation.NewSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("g", relation.KindString),
		relation.Col("v", relation.KindFloat),
	)
	if rng.Intn(2) == 0 {
		schema = append(schema, relation.Col("v_r", relation.KindInt))
	}
	schema = append(schema, relation.Col(dataset+"_x", relation.KindString))
	r := relation.New(dataset, schema)
	n := rng.Intn(25)
	for i := 0; i < n; i++ {
		row := []relation.Value{
			relation.Int(int64(rng.Intn(5))),
			relation.String_(fmt.Sprintf("g%d", rng.Intn(3))),
			relation.Float(rng.Float64()),
		}
		if rng.Float64() < 0.1 {
			row[0] = relation.Null()
		}
		if rng.Float64() < 0.1 {
			row[1] = relation.Null()
		}
		if len(schema) == 5 {
			row = append(row, relation.Int(int64(i)))
		}
		row = append(row, relation.String_(fmt.Sprintf("%s%d", dataset, i)))
		r.MustAppend(row...)
	}
	return FromSource(dataset, r)
}

func mustSameAnnotated(t *testing.T, op string, got, want *Annotated) {
	t.Helper()
	if got.Rel.Name != want.Rel.Name {
		t.Fatalf("%s: name %q != legacy %q", op, got.Rel.Name, want.Rel.Name)
	}
	if !got.Rel.Equal(want.Rel) {
		t.Fatalf("%s: schema or rows diverge:\ngot:\n%s\nwant:\n%s", op, got.Rel, want.Rel)
	}
	if len(got.Lineage) != len(want.Lineage) {
		t.Fatalf("%s: lineage len %d != %d", op, len(got.Lineage), len(want.Lineage))
	}
	for i := range got.Lineage {
		if !slices.Equal(got.Lineage[i], want.Lineage[i]) {
			t.Fatalf("%s: row %d lineage %v != legacy %v", op, i, got.Lineage[i], want.Lineage[i])
		}
	}
}

// mustSameStep compares one operator's result with the reference's: both
// fail with the same text, or both succeed with the same annotated relation.
// It reports whether the step succeeded.
func mustSameStep(t *testing.T, op string, got *Annotated, gerr error, want *Annotated, werr error) bool {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %v, legacy %v", op, gerr, werr)
		}
		return false
	}
	mustSameAnnotated(t, op, got, want)
	return true
}

// oracleSeeds is the fixed seed matrix; PROVENANCE_ORACLE_EXTRA_SEEDS=N adds
// N time-derived seeds, each named in its subtest for reproduction.
func oracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if v := os.Getenv("PROVENANCE_ORACLE_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad PROVENANCE_ORACLE_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

// TestProvenanceJoinMatchesLegacy is the lineage join oracle: random
// sources, 1–3 chained joins (single and multi-pair keys, null keys,
// duplicate build keys, the "_r" cascade), each compared with the frozen
// ordinal-column reference on rows, schema, names, lineage and error text.
// After every join, each row's lineage names every dataset joined so far
// exactly once: the premise market.AllOf values a mashup's coalitions on.
func TestProvenanceJoinMatchesLegacy(t *testing.T) {
	for _, seed := range oracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got := randAnnotated(rng, "ds0")
			want := got
			joined := []string{"ds0"}
			joins := 1 + rng.Intn(3)
			for j := 1; j <= joins; j++ {
				r := randAnnotated(rng, fmt.Sprintf("ds%d", j))
				on := []relation.JoinPair{{Left: "k", Right: "k"}}
				if rng.Intn(2) == 0 {
					on = append(on, relation.JoinPair{Left: "g", Right: "g"})
				}
				g, gerr := HashJoin(got, r, on...)
				w, werr := legacyProvHashJoin(want, r, on...)
				if !mustSameStep(t, fmt.Sprintf("seed %d join %d on %v", seed, j, on), g, gerr, w, werr) {
					t.Fatalf("seed %d join %d: valid join failed: %v", seed, j, gerr)
				}
				got, want = g, w
				joined = append(joined, fmt.Sprintf("ds%d", j))
				for i, lin := range got.Lineage {
					var names []string
					for _, ref := range lin {
						names = append(names, ref.Dataset)
					}
					if !slices.Equal(names, joined) {
						t.Fatalf("seed %d join %d: row %d lineage %v names %v, want each of %v once",
							seed, j, i, lin, names, joined)
					}
				}

				bad := relation.JoinPair{Left: "k", Right: "nope"}
				_, gerr = HashJoin(got, r, bad)
				_, werr = legacyProvHashJoin(want, r, bad)
				mustSameStep(t, fmt.Sprintf("seed %d join %d on %v", seed, j, bad), nil, gerr, nil, werr)
			}
		})
	}
}

// TestProvenanceJoinMultiPair exercises two-column join pairs where the
// second pair forces the collision-suffix path in the shared JoinLayout.
func TestProvenanceJoinMultiPair(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := randAnnotated(rng, "dsA")
	r := randAnnotated(rng, "dsB")
	on := []relation.JoinPair{{Left: "k", Right: "k"}, {Left: "g", Right: "g"}}
	got, err := HashJoin(l, r, on...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyProvHashJoin(l, r, on...)
	if err != nil {
		t.Fatal(err)
	}
	mustSameAnnotated(t, "multi-pair join", got, want)
}
