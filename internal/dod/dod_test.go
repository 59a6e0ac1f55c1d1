package dod

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/relation"
)

// paperScenario builds the paper's §1 worked example:
//
//	s1 = ⟨a, b, c⟩      (seller 1)
//	s2 = ⟨a, b', f(d)⟩   (seller 2; f(d) = celsius*1.8+32, i.e. fahrenheit)
//
// buyer wants ⟨a, b, d⟩ (attribute e has no owner; §7.1).
func paperScenario(t *testing.T) (*catalog.Catalog, *Engine) {
	t.Helper()
	s1 := relation.New("s1", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b", relation.KindFloat),
		relation.Col("c", relation.KindString),
	))
	s2 := relation.New("s2", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b_prime", relation.KindFloat),
		relation.Col("f_d", relation.KindFloat),
	))
	for i := 0; i < 120; i++ {
		s1.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5), relation.String_(fmt.Sprintf("c%d", i)))
		celsius := float64(i % 35)
		s2.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5+0.1), relation.Float(celsius*1.8+32))
	}
	cat := catalog.New()
	if err := cat.Register("s1", "seller1", s1); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("s2", "seller2", s2); err != nil {
		t.Fatal(err)
	}
	profiles := []*profile.DatasetProfile{profile.Profile("s1", s1), profile.Profile("s2", s2)}
	ix := index.Build(index.DefaultConfig(), profiles)
	eng := New(cat, discovery.New(ix))
	return cat, eng
}

func TestBuildSingleDataset(t *testing.T) {
	_, eng := paperScenario(t)
	cands, err := eng.Build(Want{Columns: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	best := cands[0]
	if best.Coverage != 1 {
		t.Errorf("coverage = %v", best.Coverage)
	}
	if len(best.Datasets) != 1 || best.Datasets[0] != "s1" {
		t.Errorf("datasets = %v; s1 alone covers a,b", best.Datasets)
	}
	if !best.Rel().Schema.Has("a") || !best.Rel().Schema.Has("b") {
		t.Errorf("schema = %s", best.Rel().Schema)
	}
}

func TestBuildJoinsAcrossSellers(t *testing.T) {
	_, eng := paperScenario(t)
	// d needs the transform; register the inverse of f (fahrenheit→celsius)
	// as the negotiation round would.
	inv, r2, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
	if err != nil || r2 < 0.999 {
		t.Fatalf("affine inference failed: %v r2=%v", err, r2)
	}
	eng.RegisterTransform("s2", "f_d", "d", inv)

	cands, err := eng.Build(Want{Columns: []string{"a", "b", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	best := cands[0]
	if best.Coverage != 1 {
		t.Fatalf("coverage = %v, plan=%v", best.Coverage, best.Plan)
	}
	if len(best.Datasets) != 2 {
		t.Errorf("datasets = %v, want both sellers", best.Datasets)
	}
	// Check d values are celsius (0..34), not fahrenheit.
	dv, err := best.Rel().Column("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dv[:5] {
		if v.AsFloat() < -1 || v.AsFloat() > 40 {
			t.Errorf("d = %v, want celsius range", v)
		}
	}
	// The mashup must name both datasets.
	if ds := best.Datasets; len(ds) != 2 {
		t.Errorf("mashup datasets = %v", ds)
	}
}

func TestBuildPartialCoverage(t *testing.T) {
	_, eng := paperScenario(t)
	// e has no owner anywhere: best mashup covers 3 of 4 columns at most
	// (a, b, and nothing for d without a transform, e never).
	cands, err := eng.Build(Want{Columns: []string{"a", "b", "e"}})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Coverage >= 1 {
		t.Errorf("coverage = %v; e is unobtainable", cands[0].Coverage)
	}
	if cands[0].Rel().Schema.Has("e") {
		t.Error("e must not appear")
	}
}

func TestBuildErrors(t *testing.T) {
	_, eng := paperScenario(t)
	if _, err := eng.Build(Want{}); err == nil {
		t.Error("empty want must fail")
	}
	if _, err := eng.Build(Want{Columns: []string{"zzz"}}); err == nil {
		t.Error("unobtainable want must fail")
	}
}

func TestAliases(t *testing.T) {
	_, eng := paperScenario(t)
	cands, err := eng.Build(Want{
		Columns: []string{"a", "bee"},
		Aliases: map[string][]string{"bee": {"b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Coverage != 1 {
		t.Errorf("alias coverage = %v", cands[0].Coverage)
	}
	if !cands[0].Rel().Schema.Has("bee") {
		t.Errorf("schema = %s, want renamed 'bee'", cands[0].Rel().Schema)
	}
}

func TestFuzzyNameMatch(t *testing.T) {
	if s := tokenSim("cust_id", "id_cust"); s != 1 {
		t.Errorf("tokenSim(cust_id, id_cust) = %v, want 1", s)
	}
	if s := tokenSim("temp_f", "temp"); s != 0.5 {
		t.Errorf("tokenSim(temp_f, temp) = %v, want 0.5", s)
	}
	if tokenSim("", "x") != 0 {
		t.Error("empty name similarity must be 0")
	}
}

func TestInferAffine(t *testing.T) {
	xs := []float64{0, 10, 20, 30}
	ys := []float64{32, 50, 68, 86} // fahrenheit
	tr, r2, err := InferAffine("c2f", xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9999 {
		t.Errorf("r2 = %v", r2)
	}
	got := tr.Fn(relation.Float(100))
	if math.Abs(got.AsFloat()-212) > 1e-9 {
		t.Errorf("c2f(100) = %v, want 212", got)
	}
	if !tr.Fn(relation.Null()).IsNull() {
		t.Error("transform of NULL is NULL")
	}
	if _, _, err := InferAffine("x", []float64{1}, []float64{2}); err == nil {
		t.Error("single pair must fail")
	}
	if _, _, err := InferAffine("x", []float64{5, 5}, []float64{1, 2}); err == nil {
		t.Error("degenerate x must fail")
	}
}

func TestInferMapping(t *testing.T) {
	from := []relation.Value{relation.String_("E01"), relation.String_("E02")}
	to := []relation.Value{relation.String_("alice"), relation.String_("bob")}
	tr, err := InferMapping("ids", from, to)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Fn(relation.String_("E01")); got.AsString() != "alice" {
		t.Errorf("map(E01) = %v", got)
	}
	if !tr.Fn(relation.String_("E99")).IsNull() {
		t.Error("unmapped input yields NULL")
	}
	// Conflicting pairs fail.
	bad := append(from, relation.String_("E01"))
	badTo := append(to, relation.String_("carol"))
	if _, err := InferMapping("ids", bad, badTo); err == nil {
		t.Error("conflicting mapping must fail")
	}
	if _, err := InferMapping("ids", nil, nil); err == nil {
		t.Error("empty mapping must fail")
	}
}

func TestMappingFromRelation(t *testing.T) {
	table := relation.New("map", relation.NewSchema(
		relation.Col("token", relation.KindString),
		relation.Col("name", relation.KindString),
	))
	table.MustAppend(relation.String_("T1"), relation.String_("x"))
	table.MustAppend(relation.String_("T2"), relation.String_("y"))
	tr, err := MappingFromRelation("m", table, "token", "name")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fn(relation.String_("T2")).AsString() != "y" {
		t.Error("mapping table transform failed")
	}
	if _, err := MappingFromRelation("m", table, "ghost", "name"); err == nil {
		t.Error("missing column must fail")
	}
}

func TestPlanTransparency(t *testing.T) {
	_, eng := paperScenario(t)
	cands, err := eng.Build(Want{Columns: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands[0].Plan) == 0 {
		t.Error("plan must record build steps for transparency (§4.4)")
	}
}
