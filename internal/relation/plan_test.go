package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// planFixture builds two joinable relations with a collision-prone right
// side: right carries "x" and "x_r", so the joined schema suffixes them.
func planFixture() (l, r *Relation) {
	l = New("l", NewSchema(Col("k", KindInt), Col("x", KindInt), Col("lv", KindFloat)))
	r = New("r", NewSchema(Col("k", KindInt), Col("x", KindFloat), Col("x_r", KindString), Col("rv", KindBool)))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		l.MustAppend(Int(int64(rng.Intn(8))), Int(int64(rng.Intn(4))), Float(rng.Float64()))
		r.MustAppend(Int(int64(rng.Intn(8))), Float(rng.Float64()), String_(fmt.Sprintf("s%d", rng.Intn(3))), Bool(rng.Intn(2) == 0))
	}
	return l, r
}

// TestPlanRunMatchesEagerChain pins Run's result (rows AND name) to the
// legacy eager join chain it replaced at its call sites: wtp's scan ⋈ scan
// and workload's three-way chain on a shared key.
func TestPlanRunMatchesEagerChain(t *testing.T) {
	l, r := planFixture()
	got, err := ScanPlan(l).Join(ScanPlan(r), JoinPair{"k", "k"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyJoin(l, r, true, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	mustSameRel(t, "plan run", got, want)
	if got.Name != "l⋈r" {
		t.Fatalf("plan result name = %q", got.Name)
	}

	// workload.ClassifierData's shape: three sources sharing a key "a".
	a := New("a", NewSchema(Col("a", KindInt), Col("b", KindFloat), Col("cat", KindString)))
	b := New("b", NewSchema(Col("a", KindInt), Col("d", KindFloat), Col("label", KindBool)))
	c := New("c", NewSchema(Col("a", KindInt), Col("e", KindFloat)))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		a.MustAppend(Int(int64(rng.Intn(10))), Float(rng.Float64()), String_(fmt.Sprintf("cat%d", i%3)))
		b.MustAppend(Int(int64(rng.Intn(10))), Float(rng.Float64()), Bool(rng.Intn(2) == 0))
		c.MustAppend(Int(int64(rng.Intn(10))), Float(rng.Float64()))
	}
	got, err = ScanPlan(a).
		Join(ScanPlan(b), JoinPair{"a", "a"}).
		Join(ScanPlan(c), JoinPair{"a", "a"}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err = legacyJoin(legacyMust(legacyJoin(a, b, true, JoinPair{"a", "a"})), c, true, JoinPair{"a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("three-way fixture joins no rows")
	}
	mustSameRel(t, "three-way plan run", got, want)
	if got.Name != "a⋈b⋈c" {
		t.Fatalf("three-way plan result name = %q", got.Name)
	}
}

// TestPlanRandomizedEquivalence drives random projections of a join over
// planFixture's suffix collisions and over random relations, and checks
// Plan.Run against the eager Project(HashJoin(…)) every time.
func TestPlanRandomizedEquivalence(t *testing.T) {
	for seed := int64(-1); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		l, r := planFixture()
		if seed >= 0 {
			l, r = randRel(rng, "l", "k"), randRel(rng, "r", "k")
		}
		joined, err := HashJoin(l, r, JoinPair{"k", "k"})
		if err != nil {
			t.Fatal(err)
		}
		names := joined.Schema.Names()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:1+rng.Intn(len(names))]

		got, err := ScanPlan(l).Join(ScanPlan(r), JoinPair{"k", "k"}).Project(names...).Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Project(joined, names...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != joined.Name {
			t.Fatalf("seed %d: plan result name = %q, want %q", seed, got.Name, joined.Name)
		}
		got.Name = want.Name
		mustSameRel(t, fmt.Sprintf("seed %d: project %v", seed, names), got, want)
	}
}
