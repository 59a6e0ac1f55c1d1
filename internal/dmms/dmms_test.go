package dmms

import (
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/relation"
)

func mkServer(t *testing.T, design *market.Design) (*httptest.Server, *Client) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{CustomDesign: design})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL)
}

func postedDesign() *market.Design {
	return &market.Design{
		Label: "posted", Mechanism: market.PostedPrice{P: 40},
		Allocator: market.Uniform{}, ArbiterFee: 0.1,
	}
}

func mkRel() *relation.Relation {
	r := relation.New("sales", relation.NewSchema(
		relation.Col("region", relation.KindString),
		relation.Col("amount", relation.KindFloat),
	))
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.String_("r"+string(rune('a'+i%4))), relation.Float(float64(i)))
	}
	return r
}

func TestHTTPEndToEnd(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	if err := c.Register("s1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("b1", 500); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("b1", 500); err == nil {
		t.Error("double registration must fail with HTTP error")
	}
	if err := c.ShareDataset("s1", "sales", mkRel(), "open"); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitRequest(RequestReq{
		Buyer:   "b1",
		Columns: []string{"region", "amount"},
		Task:    TaskSpec{Kind: "coverage", WantRows: 50},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.9, Price: 60}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no request id")
	}
	res, err := c.Match()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %+v unsat=%v", res.Transactions, res.Unsatisfied)
	}
	tx := res.Transactions[0]
	if tx.Price != 40 || tx.Buyer != "b1" {
		t.Errorf("tx = %+v", tx)
	}
	if tx.Mashup == nil || tx.Mashup.NumRows() != 60 {
		t.Error("match must deliver the mashup payload")
	}
	// History omits payload.
	hist, total, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || total != 1 || hist[0].Mashup != nil {
		t.Errorf("history = %+v (total %d)", hist, total)
	}
	bal, err := c.Balance("b1")
	if err != nil {
		t.Fatal(err)
	}
	if bal != 460 {
		t.Errorf("balance = %v", bal)
	}
	sbal, _ := c.Balance("s1")
	if sbal != 36 {
		t.Errorf("seller balance = %v, want 90%% of 40", sbal)
	}
}

func TestHTTPExPost(t *testing.T) {
	d := &market.Design{
		Label: "xp", Elicitation: market.ElicitExPost,
		Mechanism: market.ExPost{Deposit: 100, AuditProb: 0, Penalty: 1},
		Allocator: market.Uniform{},
	}
	_, c := mkServer(t, d)
	_ = c.Register("s1", 0)
	_ = c.Register("b1", 500)
	_ = c.ShareDataset("s1", "sales", mkRel(), "open")
	_, err := c.SubmitRequest(RequestReq{
		Buyer: "b1", Columns: []string{"region", "amount"},
		Task:  TaskSpec{Kind: "coverage", WantRows: 10},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.9, Price: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Match()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 || !res.Transactions[0].ExPost {
		t.Fatalf("expost tx = %+v", res.Transactions)
	}
	paid, err := c.Report(res.Transactions[0].ID, 55, 55)
	if err != nil {
		t.Fatal(err)
	}
	if paid != 55 {
		t.Errorf("paid = %v", paid)
	}
	if _, err := c.Report("bogus", 1, 1); err == nil {
		t.Error("bad tx id must error")
	}
}

func TestHTTPValidation(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	if err := c.ShareDataset("", "", nil, "open"); err == nil {
		t.Error("missing fields must fail")
	}
	if _, err := c.SubmitRequest(RequestReq{Buyer: "ghost"}); err == nil {
		t.Error("empty columns must fail")
	}
	if _, err := c.SubmitRequest(RequestReq{
		Buyer: "ghost", Columns: []string{"x"},
		Task:  TaskSpec{Kind: "alien"},
		Curve: []CurvePointSpec{{0.5, 1}},
	}); err == nil {
		t.Error("unknown task kind must fail")
	}
	if _, err := c.Balance(""); err == nil {
		t.Error("missing account must fail")
	}
	for name, funds := range map[string]float64{"debtor": -1, "whale": 1e13} {
		if err := c.Register(name, funds); err == nil {
			t.Errorf("funds %g must fail", funds)
		}
	}
}

func TestHTTPDemandSignals(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	_ = c.Register("b1", 100)
	_, err := c.SubmitRequest(RequestReq{
		Buyer: "b1", Columns: []string{"unicorn"},
		Curve: []CurvePointSpec{{0.5, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Match(); err != nil {
		t.Fatal(err)
	}
	var signals []map[string]any
	if err := c.get("/demand", &signals); err != nil {
		t.Fatal(err)
	}
	if len(signals) == 0 {
		t.Error("unmet demand must surface")
	}
}

func TestHTTPSaveCatalog(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	_ = c.Register("s1", 0)
	if err := c.ShareDataset("s1", "sales", mkRel(), "open"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out map[string]string
	if err := c.post("/save", SaveReq{Dir: dir}, &out); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 1 {
		t.Errorf("persisted datasets = %d", cat.Len())
	}
	rel, err := cat.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 60 {
		t.Errorf("rows = %d", rel.NumRows())
	}
	if err := c.post("/save", SaveReq{}, nil); err == nil {
		t.Error("empty dir must fail")
	}
}
