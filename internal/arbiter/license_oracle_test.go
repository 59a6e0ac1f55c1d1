package arbiter

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// grantLog is the reference license model: a log of one grant per dataset
// per sale, with exclusivity checked against every grant ever issued. It is
// the design license.Manager replaced, kept to pin that the holder records
// and Arbiter.MayResell answer exactly as it did.
type grantLog struct {
	terms  map[string]license.Terms
	grants []*refGrant
}

type refGrant struct {
	dataset, beneficiary string
	terms                license.Terms
	price                float64
}

func (m *grantLog) termsFor(dataset string) license.Terms {
	if t, ok := m.terms[dataset]; ok {
		return t
	}
	return license.Terms{Kind: license.Open}
}

// issue grants a license for a sale; an exclusive or transfer dataset with a
// grant already issued cannot be granted again.
func (m *grantLog) issue(dataset, beneficiary string, price float64) {
	t := m.termsFor(dataset)
	if t.Supply() == 1 {
		for _, g := range m.grants {
			if g.dataset == dataset {
				return
			}
		}
	}
	m.grants = append(m.grants, &refGrant{dataset: dataset, beneficiary: beneficiary, terms: t, price: price})
}

func (m *grantLog) mayResell(dataset, participant string) bool {
	for _, g := range m.grants {
		if g.dataset == dataset && g.beneficiary == participant {
			return g.terms.Kind == license.Open || g.terms.Kind == license.Transfer
		}
	}
	return false
}

func (m *grantLog) periodTaxes() map[string]float64 {
	out := map[string]float64{}
	for _, g := range m.grants {
		if g.terms.Kind == license.Exclusive && g.price*g.terms.ExclusivityTaxRate > 0 {
			out[g.beneficiary] += g.price * g.terms.ExclusivityTaxRate
		}
	}
	return out
}

// oracleSeeds is the fixed seeds 1–8 plus as many time-based ones as the
// environment variable env asks for.
func oracleSeeds(t *testing.T, env string) []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if v := os.Getenv(env); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad %s %q: %v", env, v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

// oracleTerms draws one of the four license kinds, exclusive ones with a
// random tax rate (sometimes none).
func oracleTerms(rng *rand.Rand) license.Terms {
	switch rng.Intn(4) {
	case 0:
		return license.Terms{Kind: license.Open}
	case 1:
		return license.Terms{Kind: license.NoResale}
	case 2:
		return license.Terms{Kind: license.Transfer}
	}
	return license.Terms{Kind: license.Exclusive, ExclusivityTaxRate: float64(rng.Intn(4)) * 0.05}
}

// oracleColumns are the value columns datasets carry beside the join key k,
// so wants over them match one or several datasets, alone or joined.
var oracleColumns = []string{"p", "q", "r"}

// TestLicenseOracle drives random shares of all four license kinds and random
// sales — logged settlements replayed with any mix of datasets, and live
// matching rounds — through an arbiter and through the grant log, comparing
// TermsFor, PeriodTaxes and MayResell for every (participant, dataset) pair
// after every step.
func TestLicenseOracle(t *testing.T) {
	var liveSales, holders int
	for _, seed := range oracleSeeds(t, "LICENSE_ORACLE_EXTRA_SEEDS") {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			a, err := New(mkDesign())
			if err != nil {
				t.Fatal(err)
			}
			ref := &grantLog{terms: map[string]license.Terms{}}
			buyers := []string{"b0", "b1", "b2", "b3"}
			participants := append([]string{"s0", "s1"}, buyers...)
			for _, p := range participants {
				if err := a.RegisterParticipant(p, 1e6); err != nil {
					t.Fatal(err)
				}
			}
			var shared []string
			nextTx := 0
			for step := 0; step < 60; step++ {
				var op string
				switch n := rng.Intn(20); {
				case n < 6 || len(shared) == 0:
					op = "share"
					id := fmt.Sprintf("d%02d", len(shared))
					col := oracleColumns[rng.Intn(len(oracleColumns))]
					rel := relation.New(id, relation.NewSchema(
						relation.Col("k", relation.KindInt), relation.Col(col, relation.KindFloat)))
					for i := 0; i < 20; i++ {
						rel.MustAppend(relation.Int(int64(i)), relation.Float(rng.Float64()))
					}
					terms := oracleTerms(rng)
					if err := a.ShareDataset(participants[rng.Intn(2)], catalog.DatasetID(id), rel, meta(id), terms); err != nil {
						t.Fatal(err)
					}
					ref.terms[id] = terms
					shared = append(shared, id)
				case n < 15:
					op = "sale"
					var datasets []string
					for _, i := range rng.Perm(len(shared))[:1+rng.Intn(min(3, len(shared)))] {
						datasets = append(datasets, shared[i])
					}
					nextTx++
					rs := ReplayedSettlement{TxID: fmt.Sprintf("tx-%04d", 10000+nextTx),
						Buyer: buyers[rng.Intn(len(buyers))], Price: float64(10 + rng.Intn(200)), Datasets: datasets}
					if err := a.ReplaySettlement(rs); err != nil {
						t.Fatal(err)
					}
					for _, ds := range datasets {
						ref.issue(ds, rs.Buyer, rs.Price)
					}
				default:
					op = "round"
					for r := 0; r < 1+rng.Intn(3); r++ {
						cols := []string{"k", oracleColumns[rng.Intn(len(oracleColumns))]}
						if rng.Intn(2) == 0 {
							cols = []string{oracleColumns[0], oracleColumns[1+rng.Intn(2)]}
						}
						f := &wtp.Function{Buyer: buyers[rng.Intn(len(buyers))],
							Task:  wtp.CoverageTask{Columns: cols, WantRows: 10},
							Curve: wtp.PriceCurve{{MinSatisfaction: 0.5, Price: 100}}}
						if _, err := a.SubmitRequest(dod.Want{Columns: cols}, f); err != nil {
							t.Fatal(err)
						}
					}
					res, err := a.MatchRound()
					if err != nil {
						t.Fatal(err)
					}
					for _, tx := range res.Transactions {
						liveSales++
						for _, ds := range tx.Datasets {
							ref.issue(ds, tx.Buyer, tx.Price)
						}
					}
				}
				compareLicenses(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), a, ref, participants, shared)
			}
			holders += len(a.Licenses.Holders())
		})
	}
	t.Logf("%d live sales, %d holders at the end", liveSales, holders)
	if liveSales == 0 || holders == 0 {
		t.Fatalf("the oracle ran %d live sales and made %d holders; it exercises neither path", liveSales, holders)
	}
}

func compareLicenses(t *testing.T, where string, a *Arbiter, ref *grantLog, participants, datasets []string) {
	t.Helper()
	for _, ds := range append([]string{"never-shared"}, datasets...) {
		if got, want := a.Licenses.TermsFor(ds), ref.termsFor(ds); got != want {
			t.Fatalf("%s: TermsFor(%s) = %+v, want %+v", where, ds, got, want)
		}
		for _, p := range participants {
			if got, want := a.MayResell(ds, p), ref.mayResell(ds, p); got != want {
				t.Fatalf("%s: MayResell(%s, %s) = %v, want %v", where, ds, p, got, want)
			}
		}
	}
	// Taxes are summed in a different order than the log's, so they agree to
	// rounding.
	got, want := a.Licenses.PeriodTaxes(), ref.periodTaxes()
	if len(got) != len(want) {
		t.Fatalf("%s: PeriodTaxes = %v, want %v", where, got, want)
	}
	for b, w := range want {
		if g, ok := got[b]; !ok || math.Abs(g-w) > 1e-9*math.Max(1, w) {
			t.Fatalf("%s: PeriodTaxes = %v, want %v", where, got, want)
		}
	}
}
