package arbiter

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/ledger"
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
	before := market.AllocEvals()
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 2 {
		t.Fatalf("transactions = %d (unsat %v)", len(res.Transactions), res.Unsatisfied)
	}
	if evals := market.AllocEvals() - before; evals != 2*3 {
		t.Fatalf("round evaluated v(S) %d times for two settlements of a 2-dataset mashup, want 6", evals)
	}
	c0, c1 := res.Transactions[0].SellerCuts, res.Transactions[1].SellerCuts
	for s, cut := range c0 {
		if math.Abs(cut-c1[s]) > 1e-9 {
			t.Fatalf("same-game settlements split differently: %v vs %v", c0, c1)
		}
	}
}

// chainMarket registers a well-funded buyer and n sellers s00, s01, …,
// each sharing one 10-row dataset keyed on k with its own value column, and
// returns the want and WTP-function of a buyer who needs every column: only
// the n-dataset join satisfies it.
func chainMarket(t *testing.T, d *market.Design, n int) (*Arbiter, dod.Want, *wtp.Function) {
	t.Helper()
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
	return a, want, f
}

// TestWideMashupSettlesWithoutPanic is the end-to-end regression for the
// ShapleyExact n>24 panic: a buyer whose want only a 25-source chain-joined
// mashup can satisfy settles through a ShapleyExact design — the allocator
// falls back to sampling instead of crashing the settlement path.
func TestWideMashupSettlesWithoutPanic(t *testing.T) {
	const n = 25
	a, want, f := chainMarket(t, mkDesign(), n) // ShapleyExact allocator — the path that used to panic
	if _, err := a.SubmitRequest(want, f); err != nil {
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
	if len(tx.Datasets) != n {
		t.Fatalf("settled mashup joins %d datasets, want %d", len(tx.Datasets), n)
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

// TestFeeFreeThreeWaySplitSettles: with no arbiter fee a three-seller sale
// of 20 splits into cuts of 20/3, which round half up to 6.666667 each and
// would sum one micro-unit past the escrow. The largest cut, ties going to
// the first name, gives the micro-unit back, up front and on an ex-post
// report alike, and the recorded cuts are exactly what the sellers received.
func TestFeeFreeThreeWaySplitSettles(t *testing.T) {
	upfront := mkDesign()
	upfront.Label, upfront.Mechanism, upfront.ArbiterFee = "upfront", market.PostedPrice{P: 20}, 0
	expost := mkDesign()
	expost.Label, expost.Elicitation, expost.ArbiterFee = "expost", market.ElicitExPost, 0
	expost.Mechanism = market.ExPost{Deposit: 20}
	for _, d := range []*market.Design{upfront, expost} {
		t.Run(d.Label, func(t *testing.T) {
			a, want, f := chainMarket(t, d, 3)
			if _, err := a.SubmitRequest(want, f); err != nil {
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
			if tx.ExPost {
				if _, err := a.SettleReport(tx.ID, 20, 20); err != nil {
					t.Fatal(err)
				}
			}
			cuts := map[string]float64{"s00": 6.666666, "s01": 6.666667, "s02": 6.666667}
			if len(tx.SellerCuts) != len(cuts) {
				t.Fatalf("seller cuts %v, want %v", tx.SellerCuts, cuts)
			}
			for s, w := range cuts {
				if ledger.FromFloat(tx.SellerCuts[s]) != ledger.FromFloat(w) || a.Ledger.Balance(s) != ledger.FromFloat(w) {
					t.Fatalf("%s: recorded cut %v, balance %v, want %v", s, tx.SellerCuts[s], a.Ledger.Balance(s), w)
				}
			}
			if tx.Price != 20 || tx.ArbiterCut != 0 || a.Ledger.Balance("buyer").Float() != 10000-20 {
				t.Fatalf("price %v, arbiter cut %v, buyer balance %v", tx.Price, tx.ArbiterCut, a.Ledger.Balance("buyer"))
			}
		})
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
				if _, err := a.SettleReport(tx.ID, 80, 80); err != nil {
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
