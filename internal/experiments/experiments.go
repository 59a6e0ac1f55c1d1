// Package experiments implements the reproduction harness: one function per
// experiment (E1–E14), each derived from the paper's evaluation plan (§6) or
// a concrete claim in the text. Every function is deterministic and returns
// a formatted table; cmd/dmbench prints them all and bench_test.go wraps
// them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table is a formatted experiment result.
type Table struct {
	ID    string
	Title string
	Rows  []string
}

// String renders the table.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	for _, r := range t.Rows {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// E1EndToEnd runs the paper's §1 worked example through the full platform
// (Fig. 1 pipeline: design -> simulate -> deploy) and reports the outcome.
func E1EndToEnd(rows int, seed int64) (Table, error) {
	t := Table{ID: "E1", Title: "end-to-end §1 scenario (s1,s2,s3,b1)"}
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Seed: seed})
	if err != nil {
		return t, err
	}
	ex := workload.NewPaperExample(rows, seed)
	if err := p.Seller("seller1").Share("s1", ex.S1, license.Terms{Kind: license.Open}); err != nil {
		return t, err
	}
	if err := p.Seller("seller2").Share("s2", ex.S2, license.Terms{Kind: license.Open}); err != nil {
		return t, err
	}
	b := p.Buyer("b1", 1000)
	if _, err := b.Need("a", "b", "d", "e").
		ForClassifier(mltask.ModelLogistic, []string{"b", "d", "e"}, "label", seed).
		Owning(ex.Truth).
		PayingAt(0.80, 100).PayingAt(0.90, 150).
		Submit(); err != nil {
		return t, err
	}
	res, err := p.MatchRound()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, fmt.Sprintf("round 1: transactions=%d unmet=%v", len(res.Transactions), demandCols(p)))

	inv, _, err := dod.InferAffine("f_inv", []float64{32, 50, 212}, []float64{0, 10, 100})
	if err != nil {
		return t, err
	}
	p.Arbiter.DoD().RegisterTransform("s2", "f_of_temp", "d", inv)
	p.Seller("seller3")
	if _, err := p.Arbiter.AskOpportunisticSeller("seller3", func(col string) *relation.Relation {
		if col == "e" {
			return ex.S3
		}
		return nil
	}); err != nil {
		return t, err
	}
	res, err = p.MatchRound()
	if err != nil {
		return t, err
	}
	if len(res.Transactions) != 1 {
		return t, fmt.Errorf("E1: expected 1 transaction, got %d", len(res.Transactions))
	}
	tx := res.Transactions[0]
	t.Rows = append(t.Rows,
		fmt.Sprintf("round 2: mashup=%s rows=%d accuracy=%.3f price=%.2f", tx.Mashup.Name, tx.Mashup.NumRows(), tx.Satisfaction, tx.Price),
		fmt.Sprintf("revenue: arbiter=%.2f sellers=%v", tx.ArbiterCut, tx.SellerCuts),
		fmt.Sprintf("audit chain intact=%v", p.Arbiter.Ledger.VerifyChain() == -1),
	)
	return t, nil
}

func demandCols(p *core.Platform) []string {
	var out []string
	for _, s := range p.Arbiter.DemandSignals() {
		out = append(out, s.Column)
	}
	return out
}

// E2SimDesigns stresses five market designs under six behaviour mixes — the
// paper's §6.1 effectiveness plan ("implement different rules and change the
// behavior of players").
func E2SimDesigns(rounds int, seed int64) Table {
	t := Table{ID: "E2", Title: "market designs under non-rational populations (§6.1)"}
	mechs := []market.Mechanism{
		market.PostedPrice{P: 100},
		market.SecondPrice{},
		market.GSP{},
		market.RSOP{Seed: seed},
		market.ExPost{Deposit: 300, AuditProb: 0.3, Penalty: 4},
	}
	mixes := []map[sim.Behavior]float64{
		{sim.Truthful: 1},
		{sim.Truthful: 0.5, sim.Strategic: 0.5},
		{sim.Truthful: 0.5, sim.Adversarial: 0.5},
		{sim.Truthful: 0.5, sim.Ignorant: 0.5},
		{sim.Truthful: 0.5, sim.RiskLover: 0.5},
		{sim.Truthful: 0.7, sim.Faulty: 0.3},
	}
	for _, mix := range mixes {
		for _, m := range mechs {
			cfg := sim.Config{Rounds: rounds, NumBuyers: 30, Supply: 1, Seed: seed, Mix: mix, ValueMean: 100, ValueStd: 30}
			t.Rows = append(t.Rows, sim.Run(cfg, m).String())
		}
		t.Rows = append(t.Rows, "")
	}
	return t
}

// E3Coalitions sweeps adversarial coalition size against revenue (§6.1:
// "players may ... form coalitions with other players to game the market").
func E3Coalitions(rounds int, seed int64) Table {
	t := Table{ID: "E3", Title: "revenue vs adversarial coalition size"}
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	for _, mech := range []market.Mechanism{market.SecondPrice{}, market.PostedPrice{P: 100}, market.RSOP{Seed: seed}} {
		cfg := sim.Config{Rounds: rounds, NumBuyers: 30, Supply: 1, Seed: seed, ValueMean: 100, ValueStd: 30}
		res := sim.CoalitionSweep(cfg, mech, fracs)
		for i, m := range res {
			t.Rows = append(t.Rows, fmt.Sprintf("%-18s coalition=%.0f%% revenue=%.0f volume=%d efficiency=%.3f",
				mech.Name(), fracs[i]*100, m.Revenue, m.Volume, m.Efficiency))
		}
		t.Rows = append(t.Rows, "")
	}
	return t
}

// E4MechanismScaling measures allocation+payment runtime as the number of
// bidders grows — the "practical / computationally efficient" requirement of
// §3.1.
func E4MechanismScaling(seed int64) Table {
	t := Table{ID: "E4", Title: "mechanism runtime vs #buyers (allocation+payment, §3.1 practicality)"}
	sizes := []int{10, 100, 1000, 10000}
	mechs := []market.Mechanism{market.PostedPrice{P: 100}, market.SecondPrice{}, market.RSOP{Seed: seed}}
	for _, mech := range mechs {
		for _, n := range sizes {
			bids := syntheticBids(n, seed)
			start := time.Now()
			iters := 0
			for time.Since(start) < 20*time.Millisecond || iters < 3 {
				mech.Run(bids, market.SupplyUnlimited)
				iters++
			}
			per := time.Since(start) / time.Duration(iters)
			t.Rows = append(t.Rows, fmt.Sprintf("%-18s n=%6d time/run=%12v", mech.Name(), n, per))
		}
		t.Rows = append(t.Rows, "")
	}
	return t
}

func syntheticBids(n int, seed int64) []market.Bid {
	bids := make([]market.Bid, n)
	x := uint64(seed)*2654435761 + 12345
	for i := range bids {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		bids[i] = market.Bid{Buyer: fmt.Sprintf("b%06d", i), Offer: 50 + float64(x%100)}
	}
	return bids
}

// E5Shapley compares exact Shapley against Monte-Carlo approximations:
// runtime and L1 allocation error (§3.2.3: "alternative approaches that are
// more computationally efficient").
func E5Shapley(seed int64) Table {
	t := Table{ID: "E5", Title: "revenue allocation: exact Shapley vs Monte-Carlo (runtime, L1 error)"}
	for _, n := range []int{4, 8, 12, 16} {
		players := make([]string, n)
		vals := map[string]float64{}
		for i := range players {
			players[i] = fmt.Sprintf("d%02d", i)
			vals[players[i]] = float64(1 + i*i%7)
		}
		// Superadditive game with synergies: pairs add bonus.
		v := func(s map[string]bool) float64 {
			var sum float64
			for p := range s {
				sum += vals[p]
			}
			return sum + 0.1*float64(len(s)*len(s))
		}
		start := time.Now()
		exact := market.ShapleyExact{}.Allocate(players, v)
		exactTime := time.Since(start)
		t.Rows = append(t.Rows, fmt.Sprintf("n=%2d exact       time=%12v", n, exactTime))
		for _, samples := range []int{50, 200, 1000} {
			start = time.Now()
			mc := market.ShapleyMonteCarlo{Samples: samples, Seed: seed}.Allocate(players, v)
			mcTime := time.Since(start)
			t.Rows = append(t.Rows, fmt.Sprintf("n=%2d mc(%5d)   time=%12v l1err=%.4f",
				n, samples, mcTime, market.ShapleyError(exact, mc)))
		}
		start = time.Now()
		loo := market.LeaveOneOut{}.Allocate(players, v)
		t.Rows = append(t.Rows, fmt.Sprintf("n=%2d leave1out   time=%12v l1err=%.4f",
			n, time.Since(start), market.ShapleyError(exact, loo)))
		t.Rows = append(t.Rows, "")
	}
	// Monte-Carlo beyond exact feasibility.
	big := make([]string, 64)
	for i := range big {
		big[i] = fmt.Sprintf("d%02d", i)
	}
	v := func(s map[string]bool) float64 { return float64(len(s)) }
	start := time.Now()
	market.ShapleyMonteCarlo{Samples: 200, Seed: seed}.Allocate(big, v)
	t.Rows = append(t.Rows, fmt.Sprintf("n=64 mc(  200)   time=%12v (exact infeasible: 2^64 coalitions)", time.Since(start)))
	return t
}
