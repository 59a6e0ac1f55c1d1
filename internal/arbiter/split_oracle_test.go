package arbiter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// TestSplitOracle checks every settlement's revenue split against the
// Shapley value of the mashup's game, v(S) = 1 if S holds all of
// tx.Datasets: every dataset earns an equal share. It drives random rounds —
// 2–4 sellers sharing chain-joinable datasets, some sellers owning two, and
// random coverage buyers — under every standard design, reports a value for
// every ex-post delivery, and asserts for each settlement:
//
//   - efficiency: ArbiterCut plus the seller cuts is the price, to a
//     micro-unit per seller, and ex-post fractions sum to 1;
//   - symmetry: each owner gets its count of tx.Datasets over
//     len(tx.Datasets) of the pool;
//   - null player: no one but the datasets' owners is paid, and each seller's
//     balance is the sum of its recorded cuts;
//   - no sampling: a round evaluates the game at most Σ(2^|D| − 1) times
//     over its settlements — exact Shapley's cost — or twice for a
//     one-dataset mashup, where posted-baseline's leave-one-out also asks
//     for v(∅).
func TestSplitOracle(t *testing.T) {
	var multi, twoOwned int
	for _, seed := range oracleSeeds(t, "SPLIT_ORACLE_EXTRA_SEEDS") {
		for _, label := range market.StandardDesigns().Labels() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, label), func(t *testing.T) {
				d, _ := market.StandardDesigns().Get(label)
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 6; round++ {
					where := fmt.Sprintf("seed %d round %d", seed, round)
					m, d2 := splitOracleRound(t, rng, d, where)
					multi += m
					twoOwned += d2
				}
			})
		}
	}
	t.Logf("%d multi-dataset settlements, %d paying one owner for two datasets", multi, twoOwned)
	if multi == 0 || twoOwned == 0 {
		t.Fatalf("the oracle settled %d multi-dataset mashups, %d paying one owner for two datasets; it exercises neither", multi, twoOwned)
	}
}

// splitOracleRound runs one random round on a fresh market under d and
// checks its settlements. It returns how many settled mashups joined several
// datasets and how many paid one owner for two of them.
func splitOracleRound(t *testing.T, rng *rand.Rand, d *market.Design, where string) (multi, twoOwned int) {
	t.Helper()
	a, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	buyers := []string{"b0", "b1", "b2", "b3"}
	for _, b := range buyers {
		if err := a.RegisterParticipant(b, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	sellers := make([]string, 2+rng.Intn(3))
	for i := range sellers {
		sellers[i] = fmt.Sprintf("s%d", i)
		if err := a.RegisterParticipant(sellers[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	// Dataset i carries the join key k and its own value column ci; every
	// seller owns one, and up to len(sellers) extra ones go to random
	// sellers.
	var cols []string
	owners := map[string]string{}
	for i := 0; i < len(sellers)+rng.Intn(len(sellers)+1); i++ {
		ds, col := fmt.Sprintf("d%d", i), fmt.Sprintf("c%d", i)
		owner := sellers[i%len(sellers)]
		if i >= len(sellers) {
			owner = sellers[rng.Intn(len(sellers))]
		}
		rel := relation.New(ds, relation.NewSchema(
			relation.Col("k", relation.KindInt), relation.Col(col, relation.KindFloat)))
		for r := 0; r < 10; r++ {
			rel.MustAppend(relation.Int(int64(r)), relation.Float(rng.Float64()))
		}
		if err := a.ShareDataset(owner, catalog.DatasetID(ds), rel, meta(ds), license.Terms{Kind: license.Open}); err != nil {
			t.Fatal(err)
		}
		owners[ds] = owner
		cols = append(cols, col)
	}
	for r := 0; r < 1+rng.Intn(4); r++ {
		var want []string
		for _, i := range rng.Perm(len(cols))[:1+rng.Intn(min(3, len(cols)))] {
			want = append(want, cols[i])
		}
		f := &wtp.Function{Buyer: buyers[rng.Intn(len(buyers))],
			Task:  wtp.CoverageTask{Columns: want, WantRows: 5},
			Curve: wtp.PriceCurve{{MinSatisfaction: 0.5, Price: float64(20 + rng.Intn(200))}}}
		if _, err := a.SubmitRequest(dod.Want{Columns: want}, f); err != nil {
			t.Fatal(err)
		}
	}

	before := market.AllocEvals()
	res, err := a.MatchRound()
	if err != nil {
		t.Fatal(err)
	}
	var bound uint64
	paid := map[string]ledger.Currency{}
	for _, tx := range res.Transactions {
		where := fmt.Sprintf("%s %s %v", where, tx.ID, tx.Datasets)
		bound += max(1<<uint(len(tx.Datasets))-1, uint64(len(tx.Datasets)+1))
		count := map[string]int{}
		for _, ds := range tx.Datasets {
			count[owners[ds]]++
		}
		if len(tx.Datasets) > 1 {
			multi++
		}
		if len(count) < len(tx.Datasets) {
			twoOwned++
		}
		if tx.ExPost {
			var sum float64
			for owner, f := range tx.ExPostShares {
				sum += f
				if want := float64(count[owner]) / float64(len(tx.Datasets)); math.Abs(f-want) > 1e-12 {
					t.Fatalf("%s: %s's ex-post share %v, want %v (%v)", where, owner, f, want, tx.ExPostShares)
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("%s: ex-post shares %v sum to %v", where, tx.ExPostShares, sum)
			}
			value := float64(rng.Intn(400))
			if _, err := a.SettleReport(tx.ID, value*rng.Float64(), value); err != nil {
				t.Fatalf("%s: report: %v", where, err)
			}
		}
		tol := 1e-6 * float64(len(tx.SellerCuts))
		sum := tx.ArbiterCut
		for s, cut := range tx.SellerCuts {
			sum += cut
			paid[s] += ledger.FromFloat(cut)
			if count[s] == 0 && cut != 0 {
				t.Fatalf("%s: %s owns none of the datasets but is paid %v", where, s, cut)
			}
		}
		if math.Abs(sum-tx.Price) > tol {
			t.Fatalf("%s: arbiter %v + cuts %v = %v, price %v", where, tx.ArbiterCut, tx.SellerCuts, sum, tx.Price)
		}
		if tx.Price <= 0 {
			continue
		}
		pool := tx.Price - tx.ArbiterCut
		for owner, n := range count {
			if want := pool * float64(n) / float64(len(tx.Datasets)); math.Abs(tx.SellerCuts[owner]-want) > tol {
				t.Fatalf("%s: %s's cut %v, want %v of pool %v (%v)", where, owner, tx.SellerCuts[owner], want, pool, tx.SellerCuts)
			}
		}
	}
	if evals := market.AllocEvals() - before; evals > bound {
		t.Fatalf("%s: %d settlements evaluated the game %d times, more than exact Shapley's %d", where, len(res.Transactions), evals, bound)
	}
	for _, s := range sellers {
		if got := a.Ledger.Balance(s); got != paid[s] {
			t.Fatalf("%s: %s holds %v micro-units, its recorded cuts sum to %v", where, s, int64(got), int64(paid[s]))
		}
	}
	return multi, twoOwned
}
