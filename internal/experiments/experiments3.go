package experiments

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
)

// E9Arbitrage runs the §7.1 arbitrageur loop — buy open data, transform,
// resell — and audits price monotonicity: a derivative only earns a margin
// when buyers value the transformation, never by re-selling identical data
// at a markup through the same posted mechanism (the query-pricing
// arbitrage-freeness intuition of §8.2 applied at dataset granularity).
func E9Arbitrage(seed int64) (Table, error) {
	t := Table{ID: "E9", Title: "arbitrageur economy: buy, transform, resell (§7.1)"}
	design := &market.Design{
		Label: "arb", Goal: market.GoalRevenue, Type: market.TypeExternal,
		Elicitation: market.ElicitUpfront,
		Mechanism:   market.SecondPrice{Reserve: 10},
		Allocator:   market.LeaveOneOut{},
		ArbiterFee:  0.05,
	}
	p, err := core.NewPlatform(core.Options{CustomDesign: design, Seed: seed})
	if err != nil {
		return t, err
	}
	base := relation.New("base", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("raw", relation.KindFloat)))
	for i := 0; i < 500; i++ {
		base.MustAppend(relation.Int(int64(i)), relation.Float(float64(i%37)))
	}
	if err := p.Seller("origin").Share("base", base, license.Terms{Kind: license.Open}); err != nil {
		return t, err
	}

	// Step 1: arbitrageur buys the raw data.
	arb := p.Buyer("arb", 1000)
	if _, err := arb.Need("k", "raw").ForCoverage(500).PayingAt(0.9, 30).Submit(); err != nil {
		return t, err
	}
	res, err := p.MatchRound()
	if err != nil || len(res.Transactions) != 1 {
		return t, fmt.Errorf("E9: buy leg failed: %v", res)
	}
	buyPrice := res.Transactions[0].Price
	t.Rows = append(t.Rows, fmt.Sprintf("buy leg: arbitrageur paid %.2f for raw data", buyPrice))

	// Step 2a: resell *identical* data — no buyer values it above the
	// original (they could buy the original), so margin is zero/negative.
	identical := res.Transactions[0].Mashup.Clone()
	identical.Name = "base_copy"
	if err := p.Seller("arb").Share("base_copy", identical, license.Terms{Kind: license.Open}); err != nil {
		return t, err
	}
	// Step 2b: resell a *transformed* derivative buyers actually want.
	derived, _ := relation.Materialize(relation.NewAddColumn(relation.NewScan(res.Transactions[0].Mashup),
		relation.Col("normalized", relation.KindFloat),
		func(row []relation.Value, s relation.Schema) relation.Value {
			return relation.Float(row[s.IndexOf("raw")].AsFloat() / 37)
		}))
	derived.Name = "base_norm"
	// The derivative sells under an exclusive license, so demand (not the
	// reserve) sets its auction price.
	if err := p.Seller("arb").Share("base_norm", derived, license.Terms{Kind: license.Exclusive}); err != nil {
		return t, err
	}

	// Buyer 1 wants raw only: the DoD can serve either base or base_copy;
	// price discovery keeps the copy from extracting a markup.
	b1 := p.Buyer("rawbuyer", 1000)
	if _, err := b1.Need("k", "raw").ForCoverage(500).PayingAt(0.9, 30).Submit(); err != nil {
		return t, err
	}
	// Buyers 2 and 3 compete for the normalized feature only the
	// derivative has; the exclusive license makes it a single-unit Vickrey.
	b2 := p.Buyer("normbuyer", 1000)
	if _, err := b2.Need("k", "normalized").ForCoverage(500).PayingAt(0.9, 80).Submit(); err != nil {
		return t, err
	}
	b3 := p.Buyer("normbuyer2", 1000)
	if _, err := b3.Need("k", "normalized").ForCoverage(500).PayingAt(0.9, 60).Submit(); err != nil {
		return t, err
	}
	res, err = p.MatchRound()
	if err != nil {
		return t, err
	}
	var rawCut, normCut float64
	for _, tx := range res.Transactions {
		cut := tx.SellerCuts["arb"]
		if tx.Mashup.Schema.Has("normalized") {
			normCut += cut
			t.Rows = append(t.Rows, fmt.Sprintf("resell transformed: %s paid %.2f, arbitrageur cut %.2f", tx.Buyer, tx.Price, cut))
		} else {
			rawCut += cut
			t.Rows = append(t.Rows, fmt.Sprintf("resell identical:   %s paid %.2f, arbitrageur cut %.2f", tx.Buyer, tx.Price, cut))
		}
	}
	t.Rows = append(t.Rows,
		fmt.Sprintf("margin on identical copy: %.2f (no transformation, no premium)", rawCut-buyPrice),
		fmt.Sprintf("margin on derivative:     %.2f (transformation earns the spread)", normCut-buyPrice),
	)
	if p.Arbiter.Ledger.VerifyChain() != -1 {
		return t, fmt.Errorf("E9: audit chain corrupt")
	}
	return t, nil
}

// E10Negotiation sweeps seller cooperation probability against mashup
// completion: negotiation rounds (§4.1) convert otherwise-unsatisfiable
// requests into trades when sellers reveal mapping information.
func E10Negotiation(seed int64) (Table, error) {
	t := Table{ID: "E10", Title: "negotiation rounds: seller cooperation vs completed requests (§4.1)"}
	for _, coop := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		completed, total, err := negotiationTrial(coop, seed)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, fmt.Sprintf("cooperation=%.2f completed=%d/%d", coop, completed, total))
	}
	return t, nil
}

func negotiationTrial(coop float64, seed int64) (completed, total int, err error) {
	const trials = 8
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%10000) / 10000
	}
	for trial := 0; trial < trials; trial++ {
		design := &market.Design{
			Label: "neg", Mechanism: market.PostedPrice{P: 10},
			Allocator: market.Uniform{},
		}
		p, perr := core.NewPlatform(core.Options{CustomDesign: design, Seed: seed + int64(trial)})
		if perr != nil {
			return 0, 0, perr
		}
		// Seller's dataset holds tokens; buyers want the decoded column.
		data := relation.New("enc", relation.NewSchema(
			relation.Col("k", relation.KindInt), relation.Col("tok", relation.KindString)))
		mapping := relation.New("map", relation.NewSchema(
			relation.Col("tok", relation.KindString), relation.Col("city", relation.KindString)))
		for i := 0; i < 100; i++ {
			tok := fmt.Sprintf("T%03d", i)
			data.MustAppend(relation.Int(int64(i)), relation.String_(tok))
			mapping.MustAppend(relation.String_(tok), relation.String_(fmt.Sprintf("city%03d", i)))
		}
		if err := p.Seller("s").Share("enc", data, license.Terms{Kind: license.Open}); err != nil {
			return 0, 0, err
		}
		b := p.Buyer("b", 100)
		if _, err := b.Need("k", "city").ForCoverage(100).PayingAt(0.99, 20).Submit(); err != nil {
			return 0, 0, err
		}
		if _, err := p.MatchRound(); err != nil {
			return 0, 0, err
		}
		// Negotiation: the seller responds with probability coop.
		p.Arbiter.NegotiationRound(map[string]arbiter.SellerResponder{
			"s": func(req arbiter.InfoRequest) *relation.Relation {
				if req.Column == "tok" && req.Target == "city" && next() < coop {
					return mapping
				}
				return nil
			},
		})
		res, err := p.MatchRound()
		if err != nil {
			return 0, 0, err
		}
		total++
		if len(res.Transactions) > 0 {
			completed++
		}
	}
	return completed, total, nil
}
