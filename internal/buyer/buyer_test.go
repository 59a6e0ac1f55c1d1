package buyer

import (
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/wtp"
)

func mkMarket(t *testing.T, mech market.Mechanism, elicit market.Elicitation) *arbiter.Arbiter {
	t.Helper()
	a, err := arbiter.New(&market.Design{
		Label: "t", Elicitation: elicit, Mechanism: mech,
		Allocator: market.Uniform{}, ArbiterFee: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"s1", "buyer1"} {
		if err := a.RegisterParticipant(n, 5000); err != nil {
			t.Fatal(err)
		}
	}
	feat := relation.New("features", relation.NewSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("x1", relation.KindFloat),
		relation.Col("x2", relation.KindFloat),
		relation.Col("label", relation.KindBool),
	))
	for i := 0; i < 300; i++ {
		x1 := float64(i%20) - 10
		x2 := float64((i*7)%20) - 10
		feat.MustAppend(relation.Int(int64(i)), relation.Float(x1), relation.Float(x2), relation.Bool(x1+x2 > 0))
	}
	meta := wtp.DatasetMeta{Dataset: "features", UpdatedAt: time.Now(), Author: "s1", HasProvenance: true}
	if err := a.ShareDataset("s1", catalog.DatasetID("features"), feat, meta, license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuilderClassifierFlow(t *testing.T) {
	a := mkMarket(t, market.PostedPrice{P: 80}, market.ElicitUpfront)
	p := New("buyer1", a)
	id, err := p.Need("x1", "x2", "label").
		ForClassifier(mltask.ModelLogistic, []string{"x1", "x2"}, "label", 7).
		PayingAt(0.8, 100).
		PayingAt(0.9, 150).
		Submit()
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no request id")
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d (unsat %v)", len(res.Transactions), res.Unsatisfied)
	}
	tx := res.Transactions[0]
	if tx.Satisfaction < 0.8 {
		t.Errorf("satisfaction = %v", tx.Satisfaction)
	}
	if tx.Price != 80 {
		t.Errorf("price = %v", tx.Price)
	}
	if p.Balance() != 5000-80 {
		t.Errorf("balance = %v", p.Balance())
	}
}

func TestBuilderValidation(t *testing.T) {
	a := mkMarket(t, market.PostedPrice{P: 1}, market.ElicitUpfront)
	p := New("buyer1", a)
	if _, err := p.Need("x1").Submit(); err == nil {
		t.Error("missing price curve must fail")
	}
	// Default task is coverage.
	b := p.Need("x1").PayingAt(0.5, 10)
	if _, err := b.Submit(); err != nil {
		t.Errorf("default coverage task should apply: %v", err)
	}
	if _, ok := b.fn.Task.(wtp.CoverageTask); !ok {
		t.Errorf("default task = %T", b.fn.Task)
	}
}

func TestExPostReporting(t *testing.T) {
	a := mkMarket(t, market.ExPost{Deposit: 300, AuditProb: 0, Penalty: 2}, market.ElicitExPost)
	p := New("buyer1", a)
	if _, err := p.Need("x1", "x2", "label").
		ForCoverage(100).
		PayingAt(0.5, 1). // nominal; ex-post pays by report
		Submit(); err != nil {
		t.Fatal(err)
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 || !res.Transactions[0].ExPost {
		t.Fatalf("expost tx missing: %v", res.Unsatisfied)
	}
	tx := res.Transactions[0]
	before := p.Balance()
	out, err := a.SettleReport(tx.ID, 120, 120)
	if err != nil {
		t.Fatal(err)
	}
	if out.Paid != 120 {
		t.Errorf("paid = %v", out.Paid)
	}
	// Deposit minus payment refunded.
	if got := p.Balance(); got != before+300-120 {
		t.Errorf("balance = %v, want %v", got, before+300-120)
	}
	if _, err := a.SettleReport("tx-9999", 1, 1); err == nil {
		t.Error("unknown tx must fail")
	}
}

func TestTrueValueRecorded(t *testing.T) {
	a := mkMarket(t, market.SecondPrice{}, market.ElicitUpfront)
	p := New("buyer1", a)
	b := p.Need("x1").ForCoverage(10).PayingAt(0.5, 40).TrueValueAt(0.5, 100)
	if b.fn.TrueValue.Price(0.6) != 100 {
		t.Error("true value curve not recorded")
	}
}
