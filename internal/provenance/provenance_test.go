package provenance

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
)

func mkAnno() (*Annotated, *Annotated) {
	l := relation.New("left", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("a", relation.KindString)))
	l.MustAppend(relation.Int(1), relation.String_("x"))
	l.MustAppend(relation.Int(2), relation.String_("y"))
	l.MustAppend(relation.Int(3), relation.String_("z"))
	r := relation.New("right", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("b", relation.KindFloat)))
	r.MustAppend(relation.Int(1), relation.Float(10))
	r.MustAppend(relation.Int(2), relation.Float(20))
	r.MustAppend(relation.Int(2), relation.Float(21))
	return FromSource("dl", l), FromSource("dr", r)
}

func TestFromSourceLineage(t *testing.T) {
	a, _ := mkAnno()
	if len(a.Lineage) != 3 {
		t.Fatalf("lineage len = %d", len(a.Lineage))
	}
	if a.Lineage[1][0] != (RowRef{"dl", 1}) {
		t.Errorf("lineage[1] = %v", a.Lineage[1])
	}
}

func TestJoinLineageUnion(t *testing.T) {
	l, r := mkAnno()
	j, err := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Rel.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3", j.Rel.NumRows())
	}
	if j.Rel.Schema.Has("__lrow") || j.Rel.Schema.Has("__rrow") {
		t.Error("ordinal columns must be stripped")
	}
	want := []Lineage{{{"dl", 0}, {"dr", 0}}, {{"dl", 1}, {"dr", 1}}, {{"dl", 1}, {"dr", 2}}}
	if !reflect.DeepEqual(j.Lineage, want) {
		t.Errorf("join lineage = %v, want %v", j.Lineage, want)
	}
}

// TestDatasetContributionsAndShares: every join row draws on both inputs, so
// each dataset contributes to all three rows and Datasets names both.
func TestDatasetContributionsAndShares(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	contrib := map[string]int{}
	for _, lin := range j.Lineage {
		seen := map[string]bool{}
		for _, ref := range lin {
			if !seen[ref.Dataset] {
				seen[ref.Dataset] = true
				contrib[ref.Dataset]++
			}
		}
	}
	if contrib["dl"] != 3 || contrib["dr"] != 3 {
		t.Errorf("contributions = %v", contrib)
	}
	if ds := j.Datasets(); !reflect.DeepEqual(ds, []string{"dl", "dr"}) {
		t.Errorf("datasets = %v", ds)
	}
}

// TestProjectKeepsLineage: a projected row's why-provenance is its input
// row's, so Project shares the input's lineage rather than copying it.
func TestProjectKeepsLineage(t *testing.T) {
	l, _ := mkAnno()
	p, err := Project(l, "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rel.Name != "left_proj" || len(p.Rel.Schema) != 1 {
		t.Errorf("project = %s %s", p.Rel.Name, p.Rel.Schema)
	}
	if len(p.Lineage) != 3 || &p.Lineage[0] != &l.Lineage[0] {
		t.Errorf("project lineage = %v, want the input's slice %v", p.Lineage, l.Lineage)
	}
	if _, err := Project(l, "nope"); err == nil {
		t.Error("project of a missing column should fail")
	}
}

// TestSelfJoinMergesLineage: a row joined with itself has one source row,
// and the merged lineage says so once.
func TestSelfJoinMergesLineage(t *testing.T) {
	r := relation.New("r", relation.NewSchema(relation.Col("v", relation.KindInt)))
	r.MustAppend(relation.Int(7))
	r.MustAppend(relation.Int(7))
	a := FromSource("d", r)
	j, err := HashJoin(a, a, relation.JoinPair{Left: "v", Right: "v"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Lineage{{{"d", 0}}, {{"d", 0}, {"d", 1}}, {{"d", 0}, {"d", 1}}, {{"d", 1}}}
	if !reflect.DeepEqual(j.Lineage, want) {
		t.Errorf("self-join lineage = %v, want %v", j.Lineage, want)
	}
}

func TestMapRenameKeepLineage(t *testing.T) {
	l, _ := mkAnno()
	m, err := Map(l, "k", relation.KindInt, func(v relation.Value) relation.Value {
		return relation.Int(v.AsInt() * 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rel.Rows[0][0].AsInt() != 10 || l.Rel.Rows[0][0].AsInt() != 1 {
		t.Error("map must transform a copy of the rows")
	}
	if !reflect.DeepEqual(m.Lineage, l.Lineage) {
		t.Error("map must keep lineage")
	}
	rn, err := Rename(m, "a", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !rn.Rel.Schema.Has("alpha") || rn.Rel.Schema.Has("a") {
		t.Error("rename failed")
	}
	if !reflect.DeepEqual(rn.Lineage, l.Lineage) {
		t.Error("rename must keep lineage")
	}
	if _, err := Map(l, "nope", relation.KindInt, nil); err == nil || err.Error() != `relation "left": no column "nope"` {
		t.Errorf("map of a missing column: %v", err)
	}
	if _, err := Rename(l, "nope", "x"); err == nil || err.Error() != `relation "left": relation: schema has no column "nope"` {
		t.Errorf("rename of a missing column: %v", err)
	}
}

// TestRestrictToDatasets: restricting the mashup to a dataset set keeps the
// rows whose lineage lies inside it, and RowsWithin counts them.
func TestRestrictToDatasets(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	for _, c := range []struct {
		allowed map[string]bool
		want    int
	}{
		{nil, 0},
		{map[string]bool{"dl": true}, 0},
		{map[string]bool{"dl": true, "dr": true}, 3},
		{map[string]bool{"dl": true, "dr": true, "other": true}, 3},
	} {
		if got := j.RowsWithin(c.allowed); got != c.want {
			t.Errorf("RowsWithin(%v) = %d, want %d", c.allowed, got, c.want)
		}
	}
	if got := l.RowsWithin(map[string]bool{"dl": true}); got != 3 {
		t.Errorf("a source lies within itself: %d of 3 rows", got)
	}
}

func TestLineageMergeDedup(t *testing.T) {
	a := Lineage{{"d", 1}, {"d", 3}}
	b := Lineage{{"d", 1}, {"c", 2}}
	m := merge(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %v", m)
	}
	if m[0] != (RowRef{"c", 2}) || m[1] != (RowRef{"d", 1}) || m[2] != (RowRef{"d", 3}) {
		t.Errorf("merge order = %v", m)
	}
}

// walkDatasets is Datasets as a fresh lineage walk every call.
func walkDatasets(a *Annotated) []string {
	set := map[string]bool{}
	for _, lin := range a.Lineage {
		for _, ref := range lin {
			set[ref.Dataset] = true
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TestDatasetsMemoized: Datasets is the lineage walk's answer on every call —
// for sources, joins, a join that matches nothing, and a projection sharing
// its input's lineage — while its callers run concurrently and scribble over
// what they got back.
func TestDatasetsMemoized(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	none, _ := HashJoin(l, r, relation.JoinPair{Left: "a", Right: "b"})
	p, _ := Project(j, "a", "b")
	for _, a := range []*Annotated{l, r, j, none, p} {
		want := walkDatasets(a)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					got := a.Datasets()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Datasets %v, the lineage holds %v", a.Rel.Name, got, want)
						return
					}
					for k := range got {
						got[k] = "scribbled"
					}
				}
			}()
		}
		wg.Wait()
	}
}
