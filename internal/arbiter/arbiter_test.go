package arbiter

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

func mkDesign() *market.Design {
	return &market.Design{
		Label: "test", Goal: market.GoalRevenue, Type: market.TypeExternal,
		Elicitation: market.ElicitUpfront,
		Mechanism:   market.PostedPrice{P: 50},
		Allocator:   market.ShapleyExact{},
		ArbiterFee:  0.1,
	}
}

func meta(ds string) wtp.DatasetMeta {
	return wtp.DatasetMeta{Dataset: ds, UpdatedAt: time.Now(), Author: "s", HasProvenance: true}
}

// setupMarket: two sellers with joinable datasets, one funded buyer.
func setupMarket(t *testing.T, d *market.Design) *Arbiter {
	t.Helper()
	a, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"seller1", "seller2", "b1", "b2"} {
		if err := a.RegisterParticipant(p, 10000); err != nil {
			t.Fatal(err)
		}
	}
	s1 := relation.New("s1", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
	s2 := relation.New("s2", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("d", relation.KindFloat)))
	for i := 0; i < 100; i++ {
		s1.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
		s2.MustAppend(relation.Int(int64(i)), relation.Float(float64(-i)))
	}
	if err := a.ShareDataset("seller1", "s1", s1, meta("s1"), license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	if err := a.ShareDataset("seller2", "s2", s2, meta("s2"), license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	return a
}

func coverageWTP(buyer string, price float64) *wtp.Function {
	return &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: []string{"a", "b", "d"}, WantRows: 50},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: price}},
	}
}

func TestEndToEndTransaction(t *testing.T) {
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	id, err := a.SubmitRequest(want, coverageWTP("b1", 100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d (unsat %v)", len(res.Transactions), res.Unsatisfied)
	}
	tx := res.Transactions[0]
	if tx.Buyer != "b1" || tx.Price != 50 {
		t.Errorf("tx = %+v", tx)
	}
	if !tx.Mashup.Schema.Has("a") || !tx.Mashup.Schema.Has("b") || !tx.Mashup.Schema.Has("d") {
		t.Errorf("mashup schema = %s", tx.Mashup.Schema)
	}
	// Money: buyer paid 50; arbiter kept 10%; sellers split 45 evenly
	// (perfect complements under Shapley).
	if got := a.Ledger.Balance("b1").Float(); got != 9950 {
		t.Errorf("buyer balance = %v", got)
	}
	if got := a.Ledger.Balance(ArbiterAccount).Float(); math.Abs(got-5) > 0.01 {
		t.Errorf("arbiter balance = %v", got)
	}
	s1b := a.Ledger.Balance("seller1").Float() - 10000
	s2b := a.Ledger.Balance("seller2").Float() - 10000
	if math.Abs(s1b-22.5) > 0.01 || math.Abs(s2b-22.5) > 0.01 {
		t.Errorf("seller earnings = %v / %v, want 22.5 each", s1b, s2b)
	}
	// Request closed; audit chain intact.
	for _, open := range a.OpenRequests() {
		if open == id {
			t.Error("satisfied request must close")
		}
	}
	if a.Ledger.VerifyChain() != -1 {
		t.Error("audit chain corrupt")
	}
	if len(a.History()) != 1 {
		t.Error("history must record the transaction")
	}
}

func TestAuctionAmongBuyers(t *testing.T) {
	d := mkDesign()
	d.Mechanism = market.SecondPrice{}
	a := setupMarket(t, d)
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	// Two buyers want the same mashup; exclusive license on s1 forces
	// single-unit supply -> Vickrey.
	if err := a.Licenses.SetTerms("s1", license.Terms{Kind: license.Exclusive, ExclusivityTaxRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitRequest(want, coverageWTP("b1", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitRequest(want, coverageWTP("b2", 70)); err != nil {
		t.Fatal(err)
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("exclusive supply must yield one sale, got %d", len(res.Transactions))
	}
	tx := res.Transactions[0]
	if tx.Buyer != "b1" {
		t.Errorf("highest bidder must win: %s", tx.Buyer)
	}
	if tx.Price != 70 {
		t.Errorf("vickrey price = %v, want second bid 70", tx.Price)
	}
	// Loser stays open.
	if len(res.Unsatisfied) != 1 {
		t.Errorf("unsatisfied = %v", res.Unsatisfied)
	}
	// The winner holds the exclusive license; tax accrues.
	taxes := a.Licenses.PeriodTaxes()
	if taxes["b1"] <= 0 {
		t.Errorf("exclusivity tax = %v", taxes)
	}
}

func TestUnmetDemandSignals(t *testing.T) {
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b", "e"}} // e exists nowhere
	f := &wtp.Function{
		Buyer: "b1",
		Task:  wtp.CoverageTask{Columns: []string{"a", "b", "e"}, WantRows: 10},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.99, Price: 100}},
	}
	if _, err := a.SubmitRequest(want, f); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MatchRound(); err != nil {
		t.Fatal(err)
	}
	sig := a.DemandSignals()
	found := false
	for _, s := range sig {
		if s.Column == "e" && s.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("demand signals = %v, want e", sig)
	}
}

func TestOpportunisticSeller(t *testing.T) {
	a := setupMarket(t, mkDesign())
	// Create unmet demand for e.
	want := dod.Want{Columns: []string{"a", "e"}}
	f := &wtp.Function{
		Buyer: "b1",
		Task:  wtp.CoverageTask{Columns: []string{"a", "e"}, WantRows: 10},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.99, Price: 100}},
	}
	if _, err := a.SubmitRequest(want, f); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MatchRound(); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterParticipant("seller3", 0); err != nil {
		t.Fatal(err)
	}
	id, err := a.AskOpportunisticSeller("seller3", func(col string) *relation.Relation {
		r := relation.New("fetched", relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col(col, relation.KindFloat)))
		for i := 0; i < 100; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2))
		}
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Catalog.Owner(id) != "seller3" {
		t.Errorf("owner = %s", a.Catalog.Owner(id))
	}
	// Next round satisfies the buyer, paying seller3.
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d", len(res.Transactions))
	}
	if a.Ledger.Balance("seller3").Float() <= 0 {
		t.Error("opportunistic seller must profit")
	}
}

func TestNegotiationRoundLearnsTransform(t *testing.T) {
	a, err := New(mkDesign())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"seller2", "b1"} {
		if err := a.RegisterParticipant(p, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// seller2 has f_d (pseudonymized d); buyer wants d.
	s2 := relation.New("s2", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("emp_token", relation.KindString)))
	mapping := relation.New("map", relation.NewSchema(
		relation.Col("emp_token", relation.KindString), relation.Col("d", relation.KindString)))
	for i := 0; i < 50; i++ {
		tok := fmt.Sprintf("T%02d", i)
		s2.MustAppend(relation.Int(int64(i)), relation.String_(tok))
		mapping.MustAppend(relation.String_(tok), relation.String_(fmt.Sprintf("name%02d", i)))
	}
	if err := a.ShareDataset("seller2", "s2", s2, meta("s2"), license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	want := dod.Want{Columns: []string{"a", "d"}}
	f := &wtp.Function{
		Buyer: "b1",
		Task:  wtp.CoverageTask{Columns: []string{"a", "d"}, WantRows: 10},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.99, Price: 60}},
	}
	if _, err := a.SubmitRequest(want, f); err != nil {
		t.Fatal(err)
	}
	res, _ := a.MatchRound()
	if len(res.Transactions) != 0 {
		t.Fatal("first round must fail: d unavailable")
	}
	// Negotiation: seller2 reveals the mapping table.
	learned := a.NegotiationRound(map[string]SellerResponder{
		"seller2": func(req InfoRequest) *relation.Relation {
			if req.Dataset == "s2" && req.Column == "emp_token" && req.Target == "d" {
				return mapping
			}
			return nil
		},
	})
	if learned != 1 {
		t.Fatalf("learned = %d transforms", learned)
	}
	res, _ = a.MatchRound()
	if len(res.Transactions) != 1 {
		t.Fatalf("after negotiation transactions = %d", len(res.Transactions))
	}
	dv, err := res.Transactions[0].Mashup.Column("d")
	if err != nil {
		t.Fatal(err)
	}
	if dv[0].AsString() != "name00" {
		t.Errorf("transformed d = %v", dv[0])
	}
}

func TestExPostFlow(t *testing.T) {
	d := &market.Design{
		Label: "expost", Goal: market.GoalVolume, Type: market.TypeExternal,
		Elicitation: market.ElicitExPost,
		Mechanism:   market.ExPost{Deposit: 200, AuditProb: 1.0, Penalty: 3},
		Allocator:   market.Uniform{},
		ArbiterFee:  0.1,
	}
	a := setupMarket(t, d)
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	if _, err := a.SubmitRequest(want, coverageWTP("b1", 100)); err != nil {
		t.Fatal(err)
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 || !res.Transactions[0].ExPost {
		t.Fatalf("expost tx = %v", res.Transactions)
	}
	tx := res.Transactions[0]
	// Deposit escrowed.
	if a.Ledger.Escrowed(tx.ID).Float() != 200 {
		t.Errorf("escrow = %v", a.Ledger.Escrowed(tx.ID))
	}
	// History hands out copies: the report rewrites the sale's price in
	// place, and a reader holding the delivered view must not see that.
	held := a.History()[0]
	delivered := held.Price
	// Buyer under-reports; audit (prob 1) catches it: pays true + penalty,
	// capped by deposit.
	out, err := a.SettleReport(tx.ID, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	want40 := 40.0 + 3*30 // 130 < deposit 200
	if math.Abs(out.Paid-want40) > 0.01 {
		t.Errorf("paid = %v, want %v", out.Paid, want40)
	}
	if held.Price != delivered || a.History()[0].Price != out.Paid {
		t.Errorf("held copy priced %v then %v; History now %v, want %v", delivered, held.Price, a.History()[0].Price, out.Paid)
	}
	// Sellers got their split.
	if a.Ledger.Balance("seller1").Float() <= 10000 {
		t.Error("seller1 must earn from ex-post settlement")
	}
	// Double report fails.
	if _, err := a.SettleReport(tx.ID, 1, 1); err == nil {
		t.Error("double settlement must fail")
	}
}

func TestInsufficientFundsDropsBuyer(t *testing.T) {
	a := setupMarket(t, mkDesign())
	if err := a.RegisterParticipant("poor", 10); err != nil {
		t.Fatal(err)
	}
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	if _, err := a.SubmitRequest(want, coverageWTP("poor", 100)); err != nil {
		t.Fatal(err)
	}
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 0 {
		t.Error("buyer without funds cannot transact")
	}
	if len(res.Unsatisfied) != 1 {
		t.Errorf("unsatisfied = %v", res.Unsatisfied)
	}
}

func TestSubmitValidation(t *testing.T) {
	a := setupMarket(t, mkDesign())
	if _, err := a.SubmitRequest(dod.Want{}, coverageWTP("b1", 1)); err == nil {
		t.Error("empty want must fail")
	}
	bad := &wtp.Function{Buyer: "b1"} // no task/curve
	if _, err := a.SubmitRequest(dod.Want{Columns: []string{"a"}}, bad); err == nil {
		t.Error("invalid wtp must fail")
	}
}

func TestMultipleRoundsIdempotent(t *testing.T) {
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	if _, err := a.SubmitRequest(want, coverageWTP("b1", 100)); err != nil {
		t.Fatal(err)
	}
	res1, _ := a.MatchRound()
	res2, _ := a.MatchRound()
	if len(res1.Transactions) != 1 || len(res2.Transactions) != 0 {
		t.Errorf("second round must not re-sell a closed request: %d/%d",
			len(res1.Transactions), len(res2.Transactions))
	}
	if len(a.OpenRequests()) != 0 {
		t.Errorf("open = %v", a.OpenRequests())
	}
}

// TestClosedStateLeaves: a settled request leaves the ID index at once, the
// history keeps only its newest window while Settled keeps counting, and a
// closed request's ID still cannot be filed again — the counter, not the
// index, rules that out.
func TestClosedStateLeaves(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.History = 3 })()
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	var ids []string
	for i := 0; i < 7; i++ {
		id, err := a.SubmitRequest(want, coverageWTP("b1", 100))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if res, err := a.MatchRound(); err != nil || len(res.Transactions) != 1 {
			t.Fatalf("round %d: %v %+v", i, err, res)
		}
	}
	// One request that stays open (offer below the posted price).
	open, err := a.SubmitRequest(want, coverageWTP("b2", 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MatchRound(); err != nil {
		t.Fatal(err)
	}

	a.mu.Lock()
	indexed, listed := len(a.reqByID), len(a.openLocked())
	a.mu.Unlock()
	if indexed != 1 || listed != 1 || a.OpenCount() != 1 {
		t.Fatalf("%d requests indexed, %d listed, want only the open one", indexed, listed)
	}
	hist := a.History()
	if len(hist) != 3 || a.HistoryHeld() != 3 || a.Settled() != 7 {
		t.Fatalf("history holds %d (held %d) of %d, want 3 of 7", len(hist), a.HistoryHeld(), a.Settled())
	}
	for i, tx := range hist {
		if tx.RequestID != ids[4+i] {
			t.Fatalf("history[%d] answers %s, want the newest three in order (%v)", i, tx.RequestID, ids[4:])
		}
	}
	if got := len(a.HistorySkeletons()); got != 3 {
		t.Fatalf("snapshot carries %d skeletons, want the window", got)
	}

	f := coverageWTP("b1", 100)
	for _, id := range []string{ids[0], ids[6], open} {
		if err := a.RestoreRequest(id, want, f); err == nil {
			t.Fatalf("request %s filed twice", id)
		}
	}
	if err := a.RestoreRequest(fmt.Sprintf("req-%04d", a.ReplayNextID()+1), want, f); err != nil {
		t.Fatalf("a fresh ID must still file: %v", err)
	}
}

// TestReplayFilingOrder pins the invariant RestoreRequest's duplicate check
// rests on: requests and transactions draw their numbers from one counter, in
// the order their events are logged, so a replay meets every filing before
// any higher-numbered ID — even when filings and settlements interleave
// across rounds and a request carried over from the first round settles
// after requests filed (and transactions numbered) long after it. A stream
// that breaks the order is refused loudly, not absorbed.
func TestReplayFilingOrder(t *testing.T) {
	type rec struct {
		req  string // a filing: the request ID …
		want dod.Want
		f    *wtp.Function
		tx   *Transaction // … or a settlement, or (neither) the late share
	}
	lateWant := dod.Want{Columns: []string{"a", "z"}}
	lateWTP := func(buyer string) *wtp.Function {
		return &wtp.Function{Buyer: buyer, Task: wtp.CoverageTask{Columns: lateWant.Columns, WantRows: 50},
			Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: 100}}}
	}
	shareLate := func(a *Arbiter) {
		s3 := relation.New("s3", relation.NewSchema(relation.Col("a", relation.KindInt), relation.Col("z", relation.KindFloat)))
		for i := 0; i < 100; i++ {
			s3.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
		}
		if err := a.ShareDataset("seller1", "s3", s3, meta("s3"), license.Terms{Kind: license.Open}); err != nil {
			t.Fatal(err)
		}
	}

	live := setupMarket(t, mkDesign())
	var log []rec
	file := func(want dod.Want, f *wtp.Function) {
		id, err := live.SubmitRequest(want, f)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, rec{req: id, want: want, f: f})
	}
	round := func(settles int) {
		res, err := live.MatchRound()
		if err != nil || len(res.Transactions) != settles {
			t.Fatalf("round settled %d (%v), want %d", len(res.Transactions), err, settles)
		}
		for _, tx := range res.Transactions {
			log = append(log, rec{tx: tx})
		}
	}
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	file(lateWant, lateWTP("b2"))      // req-0001: no supply yet, carried over
	file(want, coverageWTP("b2", 10))  // req-0002: below the posted price, open for good
	file(want, coverageWTP("b1", 100)) // req-0003
	round(1)                           // tx-0004
	file(want, coverageWTP("b1", 100)) // req-0005
	round(1)                           // tx-0006
	shareLate(live)
	log = append(log, rec{})
	file(want, coverageWTP("b1", 100)) // req-0007
	round(2)                           // tx-0008, tx-0009: the new request and the carried-over one
	if log[0].req != "req-0001" || live.OpenCount() != 1 || live.Settled() != 4 {
		t.Fatalf("script went off: first %q, %d open, %d settled", log[0].req, live.OpenCount(), live.Settled())
	}

	replay := func(log []rec) (*Arbiter, error) {
		a := setupMarket(t, mkDesign())
		for _, r := range log {
			var err error
			switch {
			case r.req != "":
				err = a.RestoreRequest(r.req, r.want, r.f)
			case r.tx != nil:
				err = a.ReplaySettlement(ReplayedSettlement{TxID: r.tx.ID, RequestID: r.tx.RequestID, Buyer: r.tx.Buyer,
					Price: r.tx.Price, ArbiterCut: r.tx.ArbiterCut, SellerCuts: r.tx.SellerCuts, Datasets: r.tx.Datasets})
			default:
				shareLate(a)
			}
			if err != nil {
				return nil, fmt.Errorf("%s%v: %w", r.req, r.tx, err)
			}
		}
		return a, nil
	}
	a, err := replay(log)
	if err != nil {
		t.Fatalf("replay in log order: %v", err)
	}
	if a.ReplayNextID() != live.ReplayNextID() || a.OpenCount() != 1 || a.Settled() != 4 ||
		a.OpenRequests()[0] != "req-0002" {
		t.Fatalf("replayed arbiter: next ID %d (live %d), %d open, %d settled", a.ReplayNextID(), live.ReplayNextID(), a.OpenCount(), a.Settled())
	}
	for _, acct := range live.Ledger.Accounts() {
		if a.Ledger.Balance(acct) != live.Ledger.Balance(acct) {
			t.Fatalf("balance of %s: %v replayed, %v live", acct, a.Ledger.Balance(acct), live.Ledger.Balance(acct))
		}
	}
	// The carried-over filing moved behind a higher-numbered settlement.
	broken := append(append([]rec{}, log[1:4]...), log[0])
	if _, err := replay(broken); err == nil || !strings.Contains(err.Error(), `"req-0001" already filed`) {
		t.Fatalf("out-of-order replay: %v, want req-0001 refused as already filed", err)
	}
}
