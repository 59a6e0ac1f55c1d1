package wtp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/mltask"
	"repro/internal/relation"
)

func mkCurve() PriceCurve {
	return PriceCurve{{MinSatisfaction: 0.8, Price: 100}, {MinSatisfaction: 0.9, Price: 150}}
}

func TestPriceCurve(t *testing.T) {
	c := mkCurve()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sat  float64
		want float64
	}{
		{0.5, 0}, {0.79, 0}, {0.8, 100}, {0.85, 100}, {0.9, 150}, {1.0, 150},
	}
	for _, cse := range cases {
		if got := c.Price(cse.sat); got != cse.want {
			t.Errorf("Price(%v) = %v, want %v", cse.sat, got, cse.want)
		}
	}
}

func TestPriceCurveValidation(t *testing.T) {
	bad := []PriceCurve{
		{},
		{{MinSatisfaction: -0.1, Price: 10}},
		{{MinSatisfaction: 0.5, Price: -1}},
		{{MinSatisfaction: 0.5, Price: 10}, {MinSatisfaction: 0.5, Price: 20}},
		{{MinSatisfaction: 0.5, Price: 20}, {MinSatisfaction: 0.8, Price: 10}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad curve %d accepted", i)
		}
	}
}

func TestCoverageTask(t *testing.T) {
	r := relation.New("m", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindInt)))
	for i := 0; i < 50; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Int(int64(i)))
	}
	task := CoverageTask{Columns: []string{"a", "b", "c"}, WantRows: 100}
	sat, err := task.Satisfaction(r)
	if err != nil {
		t.Fatal(err)
	}
	want := (2.0 / 3.0) * 0.5
	if sat != want {
		t.Errorf("sat = %v, want %v", sat, want)
	}
	if _, err := (CoverageTask{}).Satisfaction(r); err == nil {
		t.Error("empty coverage task must fail")
	}
}

func mkClassifiable(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("m", relation.NewSchema(
		relation.Col("x1", relation.KindFloat),
		relation.Col("x2", relation.KindFloat),
		relation.Col("y", relation.KindBool),
	))
	for i := 0; i < n; i++ {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		r.MustAppend(relation.Float(x1), relation.Float(x2), relation.Bool(x1+x2 > 0))
	}
	return r
}

func TestClassifierTaskSatisfaction(t *testing.T) {
	r := mkClassifiable(300, 1)
	task := ClassifierTask{Spec: mltask.ClassifierTask{
		Features: []string{"x1", "x2"}, Label: "y", Model: mltask.ModelLogistic, Seed: 2}}
	sat, err := task.Satisfaction(r)
	if err != nil {
		t.Fatal(err)
	}
	if sat < 0.85 {
		t.Errorf("satisfaction = %v", sat)
	}
}

func TestConstraints(t *testing.T) {
	r := mkClassifiable(100, 2)
	now := time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	fresh := DatasetMeta{Dataset: "d1", UpdatedAt: now.Add(-24 * time.Hour), Author: "alice", HasProvenance: true}
	stale := DatasetMeta{Dataset: "d2", UpdatedAt: now.Add(-90 * 24 * time.Hour), Author: "bob"}

	c := Constraints{MaxAge: 60 * 24 * time.Hour, Now: now}
	if ok, _ := c.Check(r, []DatasetMeta{fresh}); !ok {
		t.Error("fresh dataset must pass")
	}
	if ok, reason := c.Check(r, []DatasetMeta{fresh, stale}); ok {
		t.Error("stale dataset must fail: " + reason)
	}

	cp := Constraints{RequireProvenance: true, Now: now}
	if ok, _ := cp.Check(r, []DatasetMeta{stale}); ok {
		t.Error("missing provenance must fail")
	}

	ca := Constraints{AllowedAuthors: []string{"alice"}, Now: now}
	if ok, _ := ca.Check(r, []DatasetMeta{fresh}); !ok {
		t.Error("allowed author must pass")
	}
	if ok, _ := ca.Check(r, []DatasetMeta{stale}); ok {
		t.Error("disallowed author must fail")
	}

	cr := Constraints{MinRows: 1000}
	if ok, _ := cr.Check(r, nil); ok {
		t.Error("too few rows must fail")
	}

	null := relation.New("n", relation.NewSchema(relation.Col("a", relation.KindInt)))
	null.MustAppend(relation.Null())
	cm := Constraints{MaxMissingRatio: 0.5}
	if ok, _ := cm.Check(null, nil); ok {
		t.Error("all-null relation must fail missing-ratio check")
	}
}

func TestFunctionValidate(t *testing.T) {
	f := &Function{Buyer: "b1", Task: CoverageTask{Columns: []string{"a"}}, Curve: mkCurve()}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Function{Task: f.Task, Curve: f.Curve}).Validate(); err == nil {
		t.Error("missing buyer must fail")
	}
	if err := (&Function{Buyer: "b", Curve: f.Curve}).Validate(); err == nil {
		t.Error("missing task must fail")
	}
	if err := (&Function{Buyer: "b", Task: f.Task}).Validate(); err == nil {
		t.Error("missing curve must fail")
	}
}

func TestEvaluatePipeline(t *testing.T) {
	r := mkClassifiable(300, 3)
	f := &Function{
		Buyer: "b1",
		Task: ClassifierTask{Spec: mltask.ClassifierTask{
			Features: []string{"x1", "x2"}, Label: "y", Model: mltask.ModelLogistic, Seed: 4}},
		Curve: mkCurve(),
	}
	ev := f.Evaluate(r, nil)
	if ev.Rejected {
		t.Fatalf("rejected: %s", ev.Reason)
	}
	if ev.Satisfaction < 0.9 || ev.Offer != 150 {
		t.Errorf("satisfaction %v offer %v", ev.Satisfaction, ev.Offer)
	}
	// Constraint rejection path.
	f.Constraints = Constraints{MinRows: 10000}
	ev = f.Evaluate(r, nil)
	if !ev.Rejected {
		t.Error("constraint violation must reject")
	}
	// Task error path.
	f.Constraints = Constraints{}
	f.Task = FuncTask{Fn: func(*relation.Relation) (float64, error) {
		return 0, errTest
	}}
	ev = f.Evaluate(r, nil)
	if !ev.Rejected || ev.Reason == "" {
		t.Error("task error must reject with reason")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestOwnedDataUnion(t *testing.T) {
	// The buyer owns extra rows of the same schema: satisfaction should be
	// computed over the union.
	mashup := mkClassifiable(30, 5)
	owned := mkClassifiable(300, 6)
	owned.Name = "m" // align names irrelevant; schemas match
	f := &Function{
		Buyer: "b1",
		Task:  CoverageTask{Columns: []string{"x1", "x2", "y"}, WantRows: 330},
		Curve: PriceCurve{{MinSatisfaction: 0.99, Price: 10}},
		Owned: owned,
	}
	ev := f.Evaluate(mashup, nil)
	if ev.Rejected {
		t.Fatal(ev.Reason)
	}
	if ev.Satisfaction < 0.99 {
		t.Errorf("union satisfaction = %v; owned rows must count", ev.Satisfaction)
	}
	// Without owned data the row completeness is 30/330.
	f.Owned = nil
	ev2 := f.Evaluate(mashup, nil)
	if ev2.Satisfaction >= ev.Satisfaction {
		t.Error("owned data must increase satisfaction here")
	}
}

func TestOwnedDataJoin(t *testing.T) {
	// Owned data with different schema joins on a shared key column.
	m := relation.New("m", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("a", relation.KindFloat)))
	for i := 0; i < 20; i++ {
		m.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
	}
	owned := relation.New("own", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("b", relation.KindFloat)))
	for i := 0; i < 20; i++ {
		owned.MustAppend(relation.Int(int64(i)), relation.Float(float64(-i)))
	}
	f := &Function{
		Buyer: "b1",
		Task:  CoverageTask{Columns: []string{"a", "b"}, WantRows: 20},
		Curve: PriceCurve{{MinSatisfaction: 0.99, Price: 10}},
		Owned: owned,
	}
	ev := f.Evaluate(m, nil)
	if ev.Rejected || ev.Satisfaction < 0.99 {
		t.Errorf("join with owned data: sat=%v rejected=%v %s", ev.Satisfaction, ev.Rejected, ev.Reason)
	}
}
