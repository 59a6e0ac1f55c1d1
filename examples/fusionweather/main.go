// Command fusionweather demonstrates the data fusion operators (paper §1,
// §5.3): three sellers contribute weather signals for the same days — a city
// feed, a sensor network, and a noisy phone crowd-feed. The arbiter's fusion
// operator aligns them into a non-1NF relation whose cells hold one value
// per source; the buyer can inspect the conflicting signals, resolve them by
// majority vote or by learned source trust (truth discovery), and the market
// pays each source according to its contribution.
package main

import (
	"fmt"
	"log"
	"maps"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fusion"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Seed: 13})
	if err != nil {
		log.Fatal(err)
	}

	rels, truth, bad := workload.WeatherSources(3, 90, 31)
	var sources []fusion.Source
	for i, r := range rels {
		owner := fmt.Sprintf("provider%d", i)
		if err := p.Seller(owner).Share(
			catalog.DatasetID(fmt.Sprintf("w%d", i)), r, license.Terms{Kind: license.Open}); err != nil {
			log.Fatal(err)
		}
		sources = append(sources, fusion.Source{Name: r.Name, Rel: r})
	}
	fmt.Printf("3 providers shared weather signals over %d days (one source, %s, is unreliable)\n\n", len(truth), bad)

	// Fusion: align into multi-valued cells.
	fused, err := fusion.Align("day", []string{"temp"}, sources...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fused relation breaks 1NF: %d rows, disagreement level %.2f\n",
		fused.NumRows(), fusion.Disagreement(fused))
	fmt.Println("first rows, all signals visible (buyer can 'make up their own mind'):")
	head, _ := relation.Materialize(relation.NewLimit(relation.NewScan(fused), 4))
	head.Name = fused.Name + "_lim"
	fmt.Println(head)

	// Resolution strategy 1: majority vote.
	maj := fusion.Resolve(fused, fusion.MajorityVote{}, map[string]relation.Kind{"temp": relation.KindFloat})
	// Resolution strategy 2: truth discovery with learned source trust.
	td := fusion.NewTruthDiscovery()
	td.Fit(fused)
	tdr := fusion.Resolve(fused, td, map[string]relation.Kind{"temp": relation.KindFloat})
	// Resolution strategy 3: mean.
	mean := fusion.Resolve(fused, fusion.MeanResolver{}, map[string]relation.Kind{"temp": relation.KindFloat})

	rmse := func(r *relation.Relation) float64 {
		ti := r.Schema.IndexOf("temp")
		di := r.Schema.IndexOf("day")
		var s float64
		for _, row := range r.Rows {
			d := row[di].AsInt()
			err := row[ti].AsFloat() - truth[d]
			s += err * err
		}
		return math.Sqrt(s / float64(r.NumRows()))
	}
	fmt.Println("learned source trust (truth discovery):")
	for _, src := range slices.Sorted(maps.Keys(td.Trust)) {
		marker := ""
		if src == bad {
			marker = "  <- the unreliable source"
		}
		fmt.Printf("  %-8s %.3f%s\n", src, td.Trust[src], marker)
	}
	fmt.Printf("\nresolution quality (RMSE vs ground truth):\n")
	fmt.Printf("  majority vote    %.3f\n", rmse(maj))
	fmt.Printf("  truth discovery  %.3f\n", rmse(tdr))
	fmt.Printf("  mean             %.3f\n", rmse(mean))

	// The market side: a buyer pays for the fused, resolved signal; revenue
	// shares flow to all three providers.
	b := p.Buyer("forecaster", 500)
	if _, err := b.Need("day", "temp").ForCoverage(90).PayingAt(0.9, 120).Submit(); err != nil {
		log.Fatal(err)
	}
	res, err := p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Transactions) == 0 {
		log.Fatalf("no sale: %v", res.Unsatisfied)
	}
	tx := res.Transactions[0]
	fmt.Printf("\nforecaster bought %s for $%.2f (posted price); provider cuts: %v\n",
		tx.Mashup.Name, tx.Price, tx.SellerCuts)
	fmt.Println(p.Summary())
}
