package seller

import (
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/wtp"
)

func mkArbiter(t *testing.T) *arbiter.Arbiter {
	t.Helper()
	a, err := arbiter.New(&market.Design{
		Label: "t", Mechanism: market.PostedPrice{P: 40},
		Allocator: market.Uniform{}, ArbiterFee: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mkHR(n int) *relation.Relation {
	r := relation.New("hr", relation.NewSchema(
		relation.Col("emp", relation.KindString),
		relation.Col("age", relation.KindFloat),
		relation.Col("dept", relation.KindString),
		relation.Col("salary", relation.KindFloat),
	))
	depts := []string{"eng", "sales"}
	for i := 0; i < n; i++ {
		r.MustAppend(
			relation.String_("employee"+string(rune('a'+i%20))),
			relation.Float(float64(25+i%30)),
			relation.String_(depts[i%2]),
			relation.Float(float64(50000+i*100)),
		)
	}
	return r
}

func TestShareWithAnonymization(t *testing.T) {
	a := mkArbiter(t)
	if err := a.RegisterParticipant("hrseller", 0); err != nil {
		t.Fatal(err)
	}
	p := New("hrseller", a, 2.0, 1)
	err := p.Share("hr", mkHR(200), license.Terms{Kind: license.Open},
		p.Laplace("hr", "salary", 1.0, 100),
		p.KAnonymize("age", 10, []string{"age", "dept"}, 5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Catalog.Get("hr"); err != nil {
		t.Fatal(err)
	}
	// Budget charged.
	if p.Budget.Spent("hr") != 1.0 {
		t.Errorf("budget spent = %v", p.Budget.Spent("hr"))
	}
	// Budget exhaustion blocks further noisy releases.
	err = p.Share("hr2", mkHR(50), license.Terms{Kind: license.Open},
		p.Laplace("hr", "salary", 1.5, 100))
	if err == nil {
		t.Error("exceeding epsilon cap must fail the share")
	}
}

func TestShareBulk(t *testing.T) {
	a := mkArbiter(t)
	if err := a.RegisterParticipant("s", 0); err != nil {
		t.Fatal(err)
	}
	p := New("s", a, 1, 2)
	r1 := mkHR(10)
	r1.Name = "t1"
	r2 := mkHR(10)
	r2.Name = "t2"
	ids, err := p.ShareBulk([]*relation.Relation{r1, r2}, license.Terms{Kind: license.Open})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "s/t1" {
		t.Errorf("ids = %v", ids)
	}
	if a.Catalog.Len() != 2 {
		t.Errorf("catalog = %d", a.Catalog.Len())
	}
}

func TestAccountabilityAndEarnings(t *testing.T) {
	a := mkArbiter(t)
	for _, name := range []string{"s", "buyer"} {
		if err := a.RegisterParticipant(name, 1000); err != nil {
			t.Fatal(err)
		}
	}
	p := New("s", a, 1, 3)
	if err := p.Share("data", mkHR(100), license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	f := &wtp.Function{
		Buyer: "buyer",
		Task:  wtp.CoverageTask{Columns: []string{"emp", "salary"}, WantRows: 50},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: 60}},
	}
	if _, err := a.SubmitRequest(dod.Want{Columns: []string{"emp", "salary"}}, f); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MatchRound(); err != nil {
		t.Fatal(err)
	}
	if p.Earnings() <= 1000 {
		t.Errorf("earnings = %v, want > initial 1000", p.Earnings())
	}
	recs := p.Accountability()
	if len(recs) != 1 {
		t.Fatalf("accountability records = %d", len(recs))
	}
	if recs[0].MyCut <= 0 || len(recs[0].MyData) != 1 {
		t.Errorf("record = %+v", recs[0])
	}
}

func TestDropPIIStep(t *testing.T) {
	a := mkArbiter(t)
	if err := a.RegisterParticipant("s", 0); err != nil {
		t.Fatal(err)
	}
	p := New("s", a, 1, 4)
	if err := p.Share("d", mkHR(20), license.Terms{Kind: license.Open}, p.DropPII("emp")); err != nil {
		t.Fatal(err)
	}
	rel, _ := a.Catalog.Get("d")
	if rel.Schema.Has("emp") {
		t.Error("emp must be dropped")
	}
	_ = time.Now
}
