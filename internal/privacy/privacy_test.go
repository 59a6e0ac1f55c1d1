package privacy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func mkRel(n int) *relation.Relation {
	r := relation.New("t", relation.NewSchema(
		relation.Col("name", relation.KindString),
		relation.Col("age", relation.KindFloat),
		relation.Col("dept", relation.KindString),
	))
	depts := []string{"eng", "sales", "hr"}
	for i := 0; i < n; i++ {
		r.MustAppend(
			relation.String_("emp"+string(rune('a'+i%26))),
			relation.Float(float64(20+i%40)),
			relation.String_(depts[i%3]),
		)
	}
	return r
}

func TestBudget(t *testing.T) {
	b := NewBudget(1.0)
	if err := b.Spend("d1", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend("d1", 0.6); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend("d1", 0.1); err == nil {
		t.Error("exceeding cap must fail")
	}
	if err := b.Spend("d2", 0.9); err != nil {
		t.Error("budgets are per dataset")
	}
	if err := b.Spend("d2", -1); err == nil {
		t.Error("negative epsilon must fail")
	}
	if got := b.Spent("d1"); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spent = %v", got)
	}
	if got := b.Spent("d2"); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("spent = %v", got)
	}
}

func TestLaplaceNoiseScalesWithEpsilon(t *testing.T) {
	r := mkRel(2000)
	rng := rand.New(rand.NewSource(1))
	loose, err := LaplaceColumn(r, "age", 10.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewSource(1))
	tight, err := LaplaceColumn(r, "age", 0.1, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	mad := func(a, b *relation.Relation) float64 {
		ai := a.Schema.IndexOf("age")
		var sum float64
		for i := range a.Rows {
			sum += math.Abs(a.Rows[i][ai].AsFloat() - b.Rows[i][ai].AsFloat())
		}
		return sum / float64(len(a.Rows))
	}
	e1, e2 := mad(loose, r), mad(tight, r)
	if e1 >= e2 {
		t.Errorf("eps=10 noise %v should be << eps=0.1 noise %v", e1, e2)
	}
	if e2 < 1 {
		t.Errorf("eps=0.1 noise too small: %v", e2)
	}
	if _, err := LaplaceColumn(r, "age", -1, 1, rng); err == nil {
		t.Error("negative epsilon must fail")
	}
	if _, err := LaplaceColumn(r, "age", 1, 0, rng); err == nil {
		t.Error("zero sensitivity must fail")
	}
}

func TestGeneralizeAndSuppress(t *testing.T) {
	r := mkRel(100)
	g, err := GeneralizeNumeric(r, "age", 10)
	if err != nil {
		t.Fatal(err)
	}
	ai := g.Schema.IndexOf("age")
	for _, row := range g.Rows {
		v := row[ai].AsFloat()
		if math.Mod(v-5, 10) != 0 {
			t.Fatalf("generalized value %v is not a bucket midpoint", v)
		}
	}
	k := 5
	anon, err := SuppressRare(g, []string{"age", "dept"}, k)
	if err != nil {
		t.Fatal(err)
	}
	di := anon.Schema.IndexOf("dept")
	groups := map[string]int{}
	for _, row := range anon.Rows {
		groups[row[ai].String()+"|"+row[di].String()]++
	}
	for g, n := range groups {
		if n < k {
			t.Errorf("quasi-identifier group %s has %d rows, want >= %d", g, n, k)
		}
	}
	if _, err := GeneralizeNumeric(r, "age", 0); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := SuppressRare(r, []string{"age"}, 0); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestDropColumns(t *testing.T) {
	r := mkRel(5)
	out, err := DropColumns(r, "name")
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Has("name") || !out.Schema.Has("age") {
		t.Errorf("schema = %s", out.Schema)
	}
	if _, err := DropColumns(r, "ghost"); err == nil {
		t.Error("unknown column must fail")
	}
}
