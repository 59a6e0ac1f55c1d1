package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/dod"
	"repro/internal/index"
	"repro/internal/mltask"
	"repro/internal/privacy"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E6MashupBuilder measures metadata-engine + index-builder + DoD runtime as
// the data lake grows (§5: Aurum-style discovery at thousands of datasets),
// including the LSH-vs-exhaustive ablation.
func E6MashupBuilder(seed int64) Table {
	t := Table{ID: "E6", Title: "mashup builder scaling: profile, index (LSH vs exhaustive), DoD search"}
	for _, n := range []int{10, 50, 100, 250} {
		tables := workload.LakeTables(n, 100, seed)
		start := time.Now()
		profs := make([]*profile.DatasetProfile, len(tables))
		cat := catalog.New()
		for i, r := range tables {
			profs[i] = profile.Profile(r.Name, r)
			_ = cat.Register(catalog.DatasetID(r.Name), "lake", r)
		}
		profTime := time.Since(start)

		start = time.Now()
		ixLSH := index.Build(index.DefaultConfig(), profs)
		lshTime := time.Since(start)

		cfgEx := index.DefaultConfig()
		cfgEx.Exhaustive = true
		start = time.Now()
		ixEx := index.Build(cfgEx, profs)
		exTime := time.Since(start)

		// DoD search: ask for a 2-table combination within a cluster.
		eng := dod.New(cat, discovery.New(ixLSH))
		want := dod.Want{Columns: []string{"key_c0", "val_0_a", tables[min(10, n-1)].Schema[1].Name}}
		start = time.Now()
		cands, err := eng.Build(want)
		dodTime := time.Since(start)
		nc := 0
		if err == nil {
			nc = len(cands)
		}
		t.Rows = append(t.Rows, fmt.Sprintf(
			"datasets=%4d profile=%10v index_lsh=%10v (edges %4d) index_exhaustive=%10v (edges %4d) dod=%10v cands=%d",
			n, profTime, lshTime, ixLSH.NumEdges(), exTime, ixEx.NumEdges(), dodTime, nc))
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// E7PrivacyValue sweeps the differential-privacy epsilon against the buyer's
// realized task accuracy and the price the WTP curve yields — the
// privacy-value connection (§8.2): "the higher the privacy level, the less
// the dataset is perturbed ... the higher the price".
func E7PrivacyValue(seed int64) Table {
	t := Table{ID: "E7", Title: "privacy-value tradeoff: ε vs task accuracy vs price (§8.2)"}
	base := workload.PIITable(3000, seed)
	task := mltask.ClassifierTask{
		Features: []string{"salary", "age"}, Label: "quit",
		Model: mltask.ModelLogistic, Seed: seed,
	}
	curve := []struct {
		minSat, price float64
	}{{0.70, 50}, {0.80, 100}, {0.85, 150}}
	price := func(sat float64) float64 {
		p := 0.0
		for _, c := range curve {
			if sat >= c.minSat {
				p = c.price
			}
		}
		return p
	}
	accClean, err := task.Evaluate(base)
	if err != nil {
		t.Rows = append(t.Rows, "error: "+err.Error())
		return t
	}
	t.Rows = append(t.Rows, fmt.Sprintf("ε=   ∞ (no noise)  accuracy=%.3f price=%6.2f", accClean, price(accClean)))
	for _, eps := range []float64{10, 4, 2, 1, 0.5, 0.25, 0.1} {
		rng := rand.New(rand.NewSource(seed))
		noised, err := privacy.LaplaceColumn(base, "salary", eps, 5000, rng)
		if err != nil {
			continue
		}
		acc, err := task.Evaluate(noised)
		if err != nil {
			continue
		}
		t.Rows = append(t.Rows, fmt.Sprintf("ε=%4.2f            accuracy=%.3f price=%6.2f", eps, acc, price(acc)))
	}
	return t
}

// E8ThinMarket reports trade volume as the arbiter is allowed to combine
// more datasets per mashup — mashups "avoid thin markets" (§8.2).
func E8ThinMarket(seed int64) Table {
	t := Table{ID: "E8", Title: "thin markets: trade rate vs mashup combination limit (§8.2)"}
	cfg := sim.ThinConfig{
		Universe: 24, Sellers: 14, AttrsPerSeller: 8,
		Buyers: 500, AttrsPerBuyer: 6, Seed: seed,
	}
	for _, res := range sim.ThinSweep(cfg, []int{1, 2, 3, 4, 5}) {
		t.Rows = append(t.Rows, fmt.Sprintf("max_combine=%d satisfied=%4d/%4d trade_rate=%.3f",
			res.MaxCombine, res.Satisfied, res.Buyers, res.Rate()))
	}
	return t
}
