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
	for i, lin := range j.Lineage {
		if len(lin) != 2 {
			t.Errorf("row %d lineage = %v, want 2 refs", i, lin)
		}
		ds := map[string]bool{}
		for _, ref := range lin {
			ds[ref.Dataset] = true
		}
		if !ds["dl"] || !ds["dr"] {
			t.Errorf("row %d lineage datasets = %v", i, ds)
		}
	}
}

func TestSelectProjectKeepLineage(t *testing.T) {
	l, _ := mkAnno()
	sel := Select(l, relation.ColEquals("a", relation.String_("y")))
	if sel.Rel.NumRows() != 1 || sel.Lineage[0][0].Row != 1 {
		t.Errorf("select lineage = %v", sel.Lineage)
	}
	p, err := Project(sel, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Lineage) != 1 || p.Lineage[0][0] != (RowRef{"dl", 1}) {
		t.Errorf("project lineage = %v", p.Lineage)
	}
}

func TestDistinctMergesLineage(t *testing.T) {
	r := relation.New("r", relation.NewSchema(relation.Col("v", relation.KindInt)))
	r.MustAppend(relation.Int(7))
	r.MustAppend(relation.Int(7))
	a := FromSource("d", r)
	d := Distinct(a)
	if d.Rel.NumRows() != 1 {
		t.Fatalf("distinct rows = %d", d.Rel.NumRows())
	}
	if len(d.Lineage[0]) != 2 {
		t.Errorf("collapsed row lineage = %v, want both source rows", d.Lineage[0])
	}
}

func TestUnionMapRename(t *testing.T) {
	l, _ := mkAnno()
	u, err := Union(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rel.NumRows() != 6 || len(u.Lineage) != 6 {
		t.Errorf("union rows/lineage = %d/%d", u.Rel.NumRows(), len(u.Lineage))
	}
	m, err := Map(l, "k", relation.KindInt, func(v relation.Value) relation.Value {
		return relation.Int(v.AsInt() * 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rel.Rows[0][0].AsInt() != 10 {
		t.Error("map failed")
	}
	if len(m.Lineage) != 3 {
		t.Error("map must keep lineage")
	}
	rn, err := Rename(l, "a", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !rn.Rel.Schema.Has("alpha") {
		t.Error("rename failed")
	}
}

func TestDatasetContributionsAndShares(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	contrib := j.DatasetContributions()
	if contrib["dl"] != 3 || contrib["dr"] != 3 {
		t.Errorf("contributions = %v", contrib)
	}
	shares := j.RowShares()
	if shares["dl"] != 1.5 || shares["dr"] != 1.5 {
		t.Errorf("shares = %v; each dataset should get 0.5 per row × 3 rows", shares)
	}
	ds := j.Datasets()
	if len(ds) != 2 || ds[0] != "dl" || ds[1] != "dr" {
		t.Errorf("datasets = %v", ds)
	}
}

func TestRestrictToDatasets(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	only := j.RestrictToDatasets(map[string]bool{"dl": true})
	if only.Rel.NumRows() != 0 {
		t.Errorf("rows needing dr must vanish, got %d", only.Rel.NumRows())
	}
	both := j.RestrictToDatasets(map[string]bool{"dl": true, "dr": true})
	if both.Rel.NumRows() != 3 {
		t.Errorf("full set keeps all rows, got %d", both.Rel.NumRows())
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
// for sources, joins, a join that matches nothing, unions, restrictions and a
// distinct — while its callers run concurrently and scribble over what they
// got back.
func TestDatasetsMemoized(t *testing.T) {
	l, r := mkAnno()
	j, _ := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
	none, _ := HashJoin(Select(l, relation.ColEquals("a", relation.String_("z"))), r, relation.JoinPair{Left: "k", Right: "k"})
	u, _ := Union(l, l)
	for _, a := range []*Annotated{l, r, j, none, u, j.RestrictToDatasets(map[string]bool{"dl": true}), Distinct(j)} {
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
