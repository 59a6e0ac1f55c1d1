// Command externalmarket demonstrates an external, revenue-maximizing data
// market across organizations (paper §3.3): a seller with PII obligations
// anonymizes before sharing (§4.2), a dataset sells under an exclusive
// license with an exclusivity tax (§4.4), competing buyers are priced by a
// Vickrey auction, and an arbitrageur buys, transforms and resells data for
// profit (§7.1).
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	design := &market.Design{
		Label: "external-vickrey", Goal: market.GoalRevenue, Type: market.TypeExternal,
		Elicitation: market.ElicitUpfront,
		Mechanism:   market.SecondPrice{Reserve: 20},
		Allocator:   market.ShapleyExact{},
		ArbiterFee:  0.05,
	}
	p, err := core.NewPlatform(core.Options{CustomDesign: design, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// An HR analytics firm sells workforce data — but it contains PII, so
	// the SMP anonymization pipeline runs first: drop names, add
	// differential-privacy noise to salary, k-anonymize age/zip.
	hr := workload.PIITable(3000, 21)
	hrSeller := p.Seller("hranalytics")
	err = hrSeller.Share("workforce", hr, license.Terms{Kind: license.Open},
		hrSeller.DropPII("name"),
		hrSeller.Laplace("workforce", "salary", 2.0, 1000),
		hrSeller.KAnonymize("age", 10, []string{"age", "zip"}, 5),
	)
	if err != nil {
		log.Fatal(err)
	}
	shared, _ := p.Arbiter.Catalog.Get("workforce")
	fmt.Printf("hranalytics shared 'workforce': %d of %d rows survive anonymization (ε spent: %.1f)\n",
		shared.NumRows(), hr.NumRows(), hrSeller.Budget.Spent("workforce"))

	// A hedge fund sells a premium signal under an exclusive license.
	signal := relation.New("alpha_signal", relation.NewSchema(
		relation.Col("zip", relation.KindString),
		relation.Col("local_index", relation.KindFloat),
	))
	for i := 0; i < 30; i++ {
		signal.MustAppend(relation.String_(fmt.Sprintf("606%02d", i)), relation.Float(float64(100+i)))
	}
	fund := p.Seller("quantfund")
	if err := fund.Share("alpha", signal, license.Terms{Kind: license.Exclusive, ExclusivityTaxRate: 0.02}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("quantfund shared 'alpha' under an exclusive license (2% per-period tax)")

	// Two insurers compete for the attrition-prediction mashup
	// (workforce ⋈ alpha on zip). Exclusive license -> single-unit Vickrey.
	for _, b := range []struct {
		name      string
		bidAt80   float64
		trueValue float64
	}{
		{"insurerA", 400, 400},
		{"insurerB", 250, 250},
	} {
		buyer := p.Buyer(b.name, 2000)
		if _, err := buyer.Need("age", "salary", "local_index", "quit").
			ForClassifier(mltask.ModelLogistic, []string{"age", "salary", "local_index"}, "quit", 9).
			PayingAt(0.70, b.bidAt80).
			TrueValueAt(0.70, b.trueValue).
			Submit(); err != nil {
			log.Fatal(err)
		}
	}
	res, err := p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Transactions) == 0 {
		log.Fatalf("no sale; unsatisfied: %v", res.Unsatisfied)
	}
	tx := res.Transactions[0]
	fmt.Printf("\nauction: %s wins at the second price $%.2f (accuracy %.3f)\n",
		tx.Buyer, tx.Price, tx.Satisfaction)
	fmt.Printf("revenue split: arbiter $%.2f", tx.ArbiterCut)
	for _, s := range slices.Sorted(maps.Keys(tx.SellerCuts)) {
		fmt.Printf(", %s $%.2f", s, tx.SellerCuts[s])
	}
	fmt.Println()
	fmt.Printf("exclusivity taxes due this period: %v\n", p.Arbiter.Licenses.PeriodTaxes())

	// Arbitrage (§7.1): a data firm buys the open workforce data cheap,
	// enriches it with a quality score, and resells the derivative.
	arb := p.Buyer("arbitrageur", 1000)
	if _, err := arb.Need("age", "salary", "quit").ForCoverage(1000).PayingAt(0.9, 60).Submit(); err != nil {
		log.Fatal(err)
	}
	res, err = p.MatchRound()
	if err != nil || len(res.Transactions) == 0 {
		log.Fatalf("arbitrageur purchase failed: %v %v", err, res)
	}
	bought := res.Transactions[0]
	if !p.Arbiter.MayResell("workforce", "arbitrageur") {
		log.Fatal("open license must permit resale")
	}
	enriched := relation.AddColumn(bought.Mashup, relation.Col("risk_score", relation.KindFloat),
		func(row []relation.Value, s relation.Schema) relation.Value {
			age := row[s.IndexOf("age")].AsFloat()
			sal := row[s.IndexOf("salary")].AsFloat()
			return relation.Float(sal/1000 - age)
		})
	enriched.Name = "workforce_scored"
	arbSeller := p.Seller("arbitrageur")
	if err := arbSeller.Share("workforce_scored", enriched, license.Terms{Kind: license.Open}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\narbitrageur bought the open data for $%.2f, enriched it with risk_score, relisted it\n", bought.Price)

	// Two desks compete for the derivative; the second price now reflects
	// real demand and the arbitrageur's transformation earns its margin.
	riskBuyer := p.Buyer("riskdesk", 1000)
	if _, err := riskBuyer.Need("age", "salary", "risk_score").ForCoverage(1000).PayingAt(0.9, 150).Submit(); err != nil {
		log.Fatal(err)
	}
	creditBuyer := p.Buyer("creditdesk", 1000)
	if _, err := creditBuyer.Need("age", "salary", "risk_score").ForCoverage(1000).PayingAt(0.9, 120).Submit(); err != nil {
		log.Fatal(err)
	}
	res, err = p.MatchRound()
	if err != nil || len(res.Transactions) == 0 {
		log.Fatalf("resale failed: %v", res)
	}
	var resaleCut float64
	for _, rtx := range res.Transactions {
		fmt.Printf("%s bought the derivative for $%.2f\n", rtx.Buyer, rtx.Price)
		resaleCut += rtx.SellerCuts["arbitrageur"]
	}
	fmt.Printf("arbitrageur resale earnings $%.2f against $%.2f cost (profit $%.2f)\n",
		resaleCut, bought.Price, resaleCut-bought.Price)
	fmt.Printf("\nfinal balances: %s=%.2f quantfund=%.2f hranalytics=%.2f arbitrageur=%.2f\n",
		arbiter.ArbiterAccount,
		p.Arbiter.Ledger.Balance(arbiter.ArbiterAccount).Float(),
		fund.Earnings(), hrSeller.Earnings(), arbSeller.Earnings())
	if p.Arbiter.Ledger.VerifyChain() != -1 {
		log.Fatal("audit chain corrupt")
	}
	fmt.Println("audit chain verified;", p.Summary())
}
