package provenance

import (
	"reflect"
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
// each dataset contributes to all three rows.
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
