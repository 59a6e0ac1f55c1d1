// Command quickstart walks the paper's §1 worked example end to end:
//
//   - Seller 1 shares s1 = ⟨a, b, c⟩.
//   - Seller 2 shares s2 = ⟨a, b′, f(d)⟩ and, during a negotiation round,
//     explains how to invert f (Fahrenheit back to Celsius).
//   - Buyer b1 wants features ⟨a, b, d, e⟩ and pays $100 only if a
//     classifier trained on the mashup reaches 80% accuracy ($150 at 90%).
//   - Attribute e exists nowhere, so the arbiter publishes a demand signal
//     and opportunistic Seller 3 fetches it for profit (§7.1).
//   - The arbiter joins, transforms, transacts, and splits the revenue.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ex := workload.NewPaperExample(600, 42)

	// Sellers 1 and 2 share their data.
	seller1 := p.Seller("seller1")
	if err := seller1.Share("s1", ex.S1, license.Terms{Kind: license.Open}); err != nil {
		log.Fatal(err)
	}
	seller2 := p.Seller("seller2")
	if err := seller2.Share("s2", ex.S2, license.Terms{Kind: license.Open}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sellers shared s1=⟨a,b,c⟩ and s2=⟨a,b',f(d)⟩")

	// The buyer owns the labels; needs a,b,d,e to train the classifier.
	b1 := p.Buyer("b1", 1000)
	reqID, err := b1.Need("a", "b", "d", "e").
		ForClassifier(mltask.ModelLogistic, []string{"b", "d", "e"}, "label", 7).
		Owning(ex.Truth).
		PayingAt(0.80, 100).
		PayingAt(0.90, 150).
		Submit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buyer b1 filed %s: wants ⟨a,b,d,e⟩, $100 at 80%% accuracy, $150 at 90%%\n", reqID)

	// Round 1: d (celsius) and e are unavailable -> no trade.
	res, err := p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 1: %d transactions, unmet demand: %v\n", len(res.Transactions), p.Arbiter.DemandSignals())

	// Negotiation round: seller2 explains f(d) via example pairs
	// (Fahrenheit, Celsius) — the arbiter infers the affine inverse.
	inv, r2, err := dod.InferAffine("fahrenheit->celsius",
		[]float64{32, 50, 212}, []float64{0, 10, 100})
	if err != nil {
		log.Fatal(err)
	}
	p.Arbiter.DoD().RegisterTransform("s2", "f_of_temp", "d", inv)
	fmt.Printf("negotiation: seller2 revealed f; arbiter inferred inverse (R²=%.4f)\n", r2)

	// Opportunistic Seller 3 mines the demand board and fetches e.
	p.Seller("seller3")
	id, err := p.Arbiter.AskOpportunisticSeller("seller3", func(col string) *relation.Relation {
		if col != "e" {
			return nil
		}
		return ex.S3
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opportunistic seller3 supplied %s covering attribute e\n", id)

	// Round 2: the arbiter builds mashup(s1+s2+s3), trains the buyer's
	// classifier, and transacts.
	res, err = p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Transactions) == 0 {
		log.Fatalf("no transaction; open requests: %v", res.Unsatisfied)
	}
	tx := res.Transactions[0]
	fmt.Printf("\nround 2: transaction %s\n", tx.ID)
	fmt.Printf("  mashup      %s (%d rows) from %v\n", tx.Mashup.Name, tx.Mashup.NumRows(), tx.Datasets)
	fmt.Printf("  accuracy    %.3f\n", tx.Satisfaction)
	fmt.Printf("  price       $%.2f\n", tx.Price)
	fmt.Printf("  arbiter cut $%.2f\n", tx.ArbiterCut)
	for _, s := range slices.Sorted(maps.Keys(tx.SellerCuts)) {
		fmt.Printf("  %-10s  $%.2f\n", s, tx.SellerCuts[s])
	}
	fmt.Println("\nbuild plan (transparency, §4.4):")
	for _, step := range tx.Plan {
		fmt.Println("   ", step)
	}
	fmt.Println("\nseller accountability (seller1's view):")
	for _, rec := range seller1.Accountability() {
		fmt.Printf("  %s: my data %v in %s sold to %s for $%.2f, my cut $%.2f\n",
			rec.TxID, rec.MyData, rec.Mashup, rec.Buyer, rec.Price, rec.MyCut)
	}
	if i := p.Arbiter.Ledger.VerifyChain(); i != -1 {
		log.Fatalf("audit chain corrupt at %d", i)
	}
	fmt.Println("\naudit chain verified;", p.Summary())
}
