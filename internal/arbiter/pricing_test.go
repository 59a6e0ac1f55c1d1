package arbiter

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// TestSameMashupSettlementsSplitAlike: two sales of the same 2-dataset
// mashup in one pricing round split identically, and each evaluates its own
// 2^2-1 = 3 coalitions once: nothing is cached between settlements, and
// nothing is evaluated twice.
func TestSameMashupSettlementsSplitAlike(t *testing.T) {
	a := setupMarket(t, mkDesign()) // PostedPrice: unlimited supply, both buyers settle
	want := dod.Want{Columns: []string{"a", "b", "d"}}
	if _, err := a.SubmitRequest(want, coverageWTP("b1", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitRequest(want, coverageWTP("b2", 100)); err != nil {
		t.Fatal(err)
	}
	before := market.AllocCounters()
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 2 {
		t.Fatalf("transactions = %d (unsat %v)", len(res.Transactions), res.Unsatisfied)
	}
	after := market.AllocCounters()
	if evals := after.Evals - before.Evals; evals != 2*3 {
		t.Fatalf("round evaluated v(S) %d times for two settlements of a 2-dataset mashup, want 6", evals)
	}
	c0, c1 := res.Transactions[0].SellerCuts, res.Transactions[1].SellerCuts
	for s, cut := range c0 {
		if math.Abs(cut-c1[s]) > 1e-9 {
			t.Fatalf("same-game settlements split differently: %v vs %v", c0, c1)
		}
	}
}

// TestWideMashupSettlesWithoutPanic is the end-to-end regression for the
// ShapleyExact n>24 panic: a buyer whose want only a 25-source chain-joined
// mashup can satisfy settles through a ShapleyExact design — the allocator
// escalates to sampling instead of crashing the settlement path.
func TestWideMashupSettlesWithoutPanic(t *testing.T) {
	const n = 25
	d := mkDesign() // ShapleyExact allocator — the path that used to panic
	a, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterParticipant("buyer", 10000); err != nil {
		t.Fatal(err)
	}
	cols := make([]string, n)
	for i := 0; i < n; i++ {
		seller := fmt.Sprintf("s%02d", i)
		if err := a.RegisterParticipant(seller, 0); err != nil {
			t.Fatal(err)
		}
		col := fmt.Sprintf("c%02d", i)
		cols[i] = col
		// 10 distinct join-key values: the metadata index drops edges on
		// columns below its MinDistinct cardinality floor.
		rel := relation.New(seller+"/d0", relation.NewSchema(
			relation.Col("k", relation.KindInt), relation.Col(col, relation.KindFloat)))
		for r := 0; r < 10; r++ {
			rel.MustAppend(relation.Int(int64(r)), relation.Float(float64(i*10+r)))
		}
		ds := seller + "/d0"
		if err := a.ShareDataset(seller, catalog.DatasetID(ds), rel, meta(ds), license.Terms{Kind: license.Open}); err != nil {
			t.Fatal(err)
		}
	}
	want := dod.Want{Columns: cols, MaxDatasets: n, MaxCandidates: 3, MinJoinScore: 0.1}
	f := &wtp.Function{
		Buyer: "buyer",
		Task:  wtp.CoverageTask{Columns: cols, WantRows: 1},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.95, Price: 100}},
	}
	if _, err := a.SubmitRequest(want, f); err != nil {
		t.Fatal(err)
	}
	before := market.AllocCounters()
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d (unsat %v)", len(res.Transactions), res.Unsatisfied)
	}
	tx := res.Transactions[0]
	if len(tx.Datasets) != n {
		t.Fatalf("settled mashup joins %d datasets, want %d", len(tx.Datasets), n)
	}
	after := market.AllocCounters()
	if after.Escalations == before.Escalations {
		t.Fatal("wide settlement did not escalate to the sampled allocator")
	}
	var cuts float64
	for _, c := range tx.SellerCuts {
		if c < 0 {
			t.Fatal("negative seller cut")
		}
		cuts += c
	}
	if math.Abs(cuts+tx.ArbiterCut-tx.Price) > 0.01 {
		t.Fatalf("wide settlement does not conserve: cuts %.4f + fee %.4f != %.4f", cuts, tx.ArbiterCut, tx.Price)
	}
	if a.Ledger.VerifyChain() != -1 {
		t.Fatal("audit chain corrupt after wide settlement")
	}
}

// TestEmptyMashupPaysNoSeller: a buyer whose curve pays for column coverage
// alone (WantRows 0) can buy a mashup with no rows. No seller contributed a
// row, so no seller is paid: the arbiter keeps the whole price, up front and
// on an ex-post report alike, and an ex-post delivery fixes no fractions.
func TestEmptyMashupPaysNoSeller(t *testing.T) {
	upfront := mkDesign()
	upfront.Label = "upfront"
	expost := &market.Design{
		Label: "expost", Goal: market.GoalVolume, Type: market.TypeExternal,
		Elicitation: market.ElicitExPost,
		Mechanism:   market.ExPost{Deposit: 200, AuditProb: 0, Penalty: 3},
		Allocator:   market.ShapleyExact{},
		ArbiterFee:  0.1,
	}
	for _, d := range []*market.Design{upfront, expost} {
		t.Run(d.Label, func(t *testing.T) {
			a := setupMarket(t, d)
			empty := relation.New("e0", relation.NewSchema(
				relation.Col("e", relation.KindInt), relation.Col("f", relation.KindFloat)))
			if err := a.ShareDataset("seller1", "e0", empty, meta("e0"), license.Terms{Kind: license.Open}); err != nil {
				t.Fatal(err)
			}
			f := &wtp.Function{
				Buyer: "b1",
				Task:  wtp.CoverageTask{Columns: []string{"e", "f"}},
				Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: 100}},
			}
			if _, err := a.SubmitRequest(dod.Want{Columns: []string{"e", "f"}}, f); err != nil {
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
			if tx.Mashup.NumRows() != 0 || len(tx.Datasets) != 1 || tx.Datasets[0] != "e0" {
				t.Fatalf("sold %d rows of %v, want the empty e0", tx.Mashup.NumRows(), tx.Datasets)
			}
			if tx.ExPostShares != nil {
				t.Fatalf("ex-post shares = %v, want nil", tx.ExPostShares)
			}
			if tx.ExPost {
				if _, err := a.ReportValue(tx.ID, 80, 80); err != nil {
					t.Fatal(err)
				}
			}
			if tx.Price <= 0 || tx.ArbiterCut != tx.Price || len(tx.SellerCuts) != 0 {
				t.Fatalf("price %v, arbiter cut %v, seller cuts %v: want the arbiter to keep it all",
					tx.Price, tx.ArbiterCut, tx.SellerCuts)
			}
			if got := a.Ledger.Balance("seller1").Float(); got != 10000 {
				t.Fatalf("seller1 balance = %v, want 10000", got)
			}
		})
	}
}
