// Package privacy provides the statistical-database-privacy toolkit of the
// Seller Management Platform (paper §4.2): sellers who fear leaking PII run
// their datasets through these mechanisms before sharing with the arbiter.
// It implements the Laplace mechanism for numeric columns, k-anonymity-style
// generalization for quasi-identifiers, and an epsilon budget accountant, so
// the platform can reason about the privacy-value tradeoff (paper §8.2
// "Privacy-Value Connection", experiment E7).
package privacy

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
)

// Budget tracks cumulative epsilon spent per dataset, enforcing a cap. The
// composition rule applied is basic (sequential) composition: epsilons add.
type Budget struct {
	Cap   float64
	spent map[string]float64
}

// NewBudget creates an accountant with the given per-dataset epsilon cap.
func NewBudget(cap float64) *Budget {
	return &Budget{Cap: cap, spent: map[string]float64{}}
}

// Spend records eps against the dataset, failing if the cap would be passed.
func (b *Budget) Spend(dataset string, eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("privacy: epsilon must be positive, got %g", eps)
	}
	if b.spent[dataset]+eps > b.Cap+1e-12 {
		return fmt.Errorf("privacy: dataset %q budget exhausted: spent %.3f + %.3f > cap %.3f",
			dataset, b.spent[dataset], eps, b.Cap)
	}
	b.spent[dataset] += eps
	return nil
}

// Spent returns the epsilon consumed so far for a dataset.
func (b *Budget) Spent(dataset string) float64 { return b.spent[dataset] }

// laplace draws Laplace(0, scale) noise from rng.
func laplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	return -scale * sgn(u) * math.Log(1-2*math.Abs(u))
}

func sgn(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// LaplaceColumn returns a copy of r with Laplace(sensitivity/eps) noise added
// to the named numeric column. Smaller eps = more privacy = noisier values =
// lower data value for the buyer — the tradeoff E7 sweeps.
func LaplaceColumn(r *relation.Relation, col string, eps, sensitivity float64, rng *rand.Rand) (*relation.Relation, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("privacy: epsilon must be positive, got %g", eps)
	}
	if sensitivity <= 0 {
		return nil, fmt.Errorf("privacy: sensitivity must be positive, got %g", sensitivity)
	}
	scale := sensitivity / eps
	return mapNumeric(r, col, func(x float64) float64 { return x + laplace(rng, scale) })
}

// GeneralizeNumeric buckets a numeric quasi-identifier into ranges of the
// given width, replacing each value with its bucket midpoint. Combined with
// SuppressRare this yields a k-anonymity-style release.
func GeneralizeNumeric(r *relation.Relation, col string, width float64) (*relation.Relation, error) {
	if width <= 0 {
		return nil, fmt.Errorf("privacy: bucket width must be positive, got %g", width)
	}
	return mapNumeric(r, col, func(x float64) float64 { return math.Floor(x/width)*width + width/2 })
}

// mapNumeric returns a copy of r, under its name, whose column col holds fn
// of each numeric cell as a float column. NULL and non-numeric cells pass
// through.
func mapNumeric(r *relation.Relation, col string, fn func(float64) float64) (*relation.Relation, error) {
	it, err := relation.NewMap(relation.NewScan(r), col, relation.KindFloat, func(v relation.Value) relation.Value {
		if v.IsNull() || !v.IsNumeric() {
			return v
		}
		return relation.Float(fn(v.AsFloat()))
	})
	if err != nil {
		return nil, fmt.Errorf("privacy: no column %q", col)
	}
	out, _ := relation.Materialize(it)
	out.Name = r.Name
	return out, nil
}

// SuppressRare removes rows whose combination of the given quasi-identifier
// columns appears fewer than k times, achieving k-anonymity over those
// columns for the surviving rows.
func SuppressRare(r *relation.Relation, quasi []string, k int) (*relation.Relation, error) {
	if k < 1 {
		return nil, fmt.Errorf("privacy: k must be >= 1, got %d", k)
	}
	idx := make([]int, len(quasi))
	for i, q := range quasi {
		idx[i] = r.Schema.IndexOf(q)
		if idx[i] < 0 {
			return nil, fmt.Errorf("privacy: no column %q", q)
		}
	}
	var buf []byte
	counts := map[string]int{}
	for _, row := range r.Rows {
		buf = relation.AppendRowKey(buf[:0], row, idx)
		counts[string(buf)]++
	}
	it := relation.NewSelect(relation.NewScan(r), func(row []relation.Value, _ relation.Schema) bool {
		buf = relation.AppendRowKey(buf[:0], row, idx)
		return counts[string(buf)] >= k
	})
	out, _ := relation.Materialize(it)
	out.Name = r.Name + "_kanon"
	return out, nil
}

// DropColumns removes outright-identifying columns (names, SSNs) before
// release. It is the bluntest tool in the anonymization pipeline.
func DropColumns(r *relation.Relation, cols ...string) (*relation.Relation, error) {
	keep := make([]string, 0, len(r.Schema))
	drop := map[string]bool{}
	for _, c := range cols {
		if !r.Schema.Has(c) {
			return nil, fmt.Errorf("privacy: no column %q", c)
		}
		drop[c] = true
	}
	for _, c := range r.Schema {
		if !drop[c.Name] {
			keep = append(keep, c.Name)
		}
	}
	it, err := relation.NewProject(relation.NewScan(r), keep...)
	if err != nil {
		return nil, err
	}
	out, _ := relation.Materialize(it)
	out.Name = r.Name + "_proj"
	return out, nil
}
