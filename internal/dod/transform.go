package dod

import (
	"fmt"
	"math"

	"repro/internal/relation"
)

// Transform converts the values of one column into the representation the
// buyer wants — the inverse mapping f′ of the paper's f(d) (§1 Challenge-3).
// A transform is either a closed-form function (affine) or a mapping table.
type Transform struct {
	Name string
	Kind relation.Kind // output kind
	Fn   func(relation.Value) relation.Value
}

// InferAffine fits y ≈ a·x + b over paired example values by least squares
// and returns the transform plus R². The arbiter uses example pairs —
// supplied by the buyer's packaged data or by a seller during negotiation
// rounds — to recover unit conversions such as Celsius→Fahrenheit.
func InferAffine(name string, xs, ys []float64) (*Transform, float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, 0, fmt.Errorf("dod: affine inference needs >=2 paired examples, got %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return nil, 0, fmt.Errorf("dod: affine inference: degenerate x values")
	}
	a := (n*sxy - sx*sy) / den
	b := (sy - a*sx) / n
	// R²
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := a*xs[i] + b
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 1e-12 {
		r2 = 1 - ssRes/ssTot
	}
	t := &Transform{
		Name: name,
		Kind: relation.KindFloat,
		Fn: func(v relation.Value) relation.Value {
			if v.IsNull() || !v.IsNumeric() {
				return relation.Null()
			}
			return relation.Float(a*v.AsFloat() + b)
		},
	}
	return t, r2, nil
}

// InferMapping builds a lookup-table transform from paired example values —
// the "mapping table that links values of f(d) to values of d" for
// non-invertible functions such as employee→ID pseudonymization. Conflicting
// pairs (same input, different outputs) make inference fail.
func InferMapping(name string, from, to []relation.Value) (*Transform, error) {
	if len(from) != len(to) || len(from) == 0 {
		return nil, fmt.Errorf("dod: mapping inference needs paired examples, got %d/%d", len(from), len(to))
	}
	table := map[string]relation.Value{}
	outKind := relation.KindNull
	for i := range from {
		if from[i].IsNull() || to[i].IsNull() {
			continue
		}
		k := from[i].Key()
		if prev, ok := table[k]; ok && !prev.Equal(to[i]) {
			return nil, fmt.Errorf("dod: mapping inference: conflicting outputs for %v", from[i])
		}
		table[k] = to[i]
		outKind = to[i].Kind()
	}
	if len(table) == 0 {
		return nil, fmt.Errorf("dod: mapping inference: no usable pairs")
	}
	return &Transform{
		Name: name,
		Kind: outKind,
		Fn: func(v relation.Value) relation.Value {
			if v.IsNull() {
				return relation.Null()
			}
			if out, ok := table[v.Key()]; ok {
				return out
			}
			return relation.Null()
		},
	}, nil
}

// MappingFromRelation builds a mapping transform from a two-column mapping
// table relation (fromCol → toCol) — the artifact a seller contributes when
// the arbiter's negotiation round asks "how do I transform this attribute so
// it joins with another one" (paper §4.1).
func MappingFromRelation(name string, table *relation.Relation, fromCol, toCol string) (*Transform, error) {
	fi := table.Schema.IndexOf(fromCol)
	ti := table.Schema.IndexOf(toCol)
	if fi < 0 || ti < 0 {
		return nil, fmt.Errorf("dod: mapping table needs columns %q and %q", fromCol, toCol)
	}
	from := make([]relation.Value, 0, table.NumRows())
	to := make([]relation.Value, 0, table.NumRows())
	for _, row := range table.Rows {
		from = append(from, row[fi])
		to = append(to, row[ti])
	}
	return InferMapping(name, from, to)
}
