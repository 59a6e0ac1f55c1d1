// Package wtp implements willing-to-pay functions, the building block of the
// elicitation protocol between buyers and arbiter (paper §3.2.2). A
// WTP-function carries: (i) a package with the data task to solve; (ii) a
// function assigning a price to each degree of satisfaction; (iii) packaged
// data the buyer already owns; and (iv) a list of intrinsic dataset
// properties the buyer requires (expiry, freshness, provenance, authorship).
package wtp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mltask"
	"repro/internal/relation"
)

// Task measures the degree of satisfaction a mashup achieves, in [0,1].
// Different tasks use different metrics (paper: "Task Multiplicity") —
// classifier accuracy, schema/row completeness, and so on.
type Task interface {
	Satisfaction(m *relation.Relation) (float64, error)
}

// ClassifierTask adapts an mltask classifier: satisfaction = held-out
// accuracy, the metric of the paper's running example.
type ClassifierTask struct {
	Spec mltask.ClassifierTask
}

// Satisfaction implements Task.
func (t ClassifierTask) Satisfaction(m *relation.Relation) (float64, error) {
	return t.Spec.Evaluate(m)
}

// CoverageTask scores a mashup by target-schema coverage and row
// completeness — the "notions of completeness borrowed from the approximate
// query processing literature" for relational tasks (paper §3.2.2.1).
type CoverageTask struct {
	Columns  []string
	WantRows int // rows at which row-completeness saturates
}

// Satisfaction implements Task: geometric blend of column coverage and row
// completeness.
func (t CoverageTask) Satisfaction(m *relation.Relation) (float64, error) {
	if len(t.Columns) == 0 {
		return 0, fmt.Errorf("wtp: coverage task has no columns")
	}
	cov := m.Schema.CoverageOf(t.Columns)
	rows := 1.0
	if t.WantRows > 0 {
		rows = float64(m.NumRows()) / float64(t.WantRows)
		if rows > 1 {
			rows = 1
		}
	}
	return cov * rows, nil
}

// FuncTask wraps an arbitrary satisfaction function — the escape hatch for
// buyer-shipped code packages.
type FuncTask struct {
	Fn func(*relation.Relation) (float64, error)
}

// Satisfaction implements Task.
func (t FuncTask) Satisfaction(m *relation.Relation) (float64, error) { return t.Fn(m) }

// CurvePoint maps a satisfaction threshold to a price.
type CurvePoint struct {
	MinSatisfaction float64
	Price           float64
}

// PriceCurve is a monotone step function: the buyer pays the price of the
// highest threshold reached. The paper's example — "$100 for any dataset
// that permits the model achieve 80% accuracy, and $150 if the accuracy goes
// beyond 90%" — is Curve{{0.8, 100}, {0.9, 150}}.
type PriceCurve []CurvePoint

// Validate checks the curve is sorted, in range, and monotone in price.
func (c PriceCurve) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("wtp: empty price curve")
	}
	for i, p := range c {
		if p.MinSatisfaction < 0 || p.MinSatisfaction > 1 {
			return fmt.Errorf("wtp: curve point %d satisfaction %v out of [0,1]", i, p.MinSatisfaction)
		}
		if p.Price < 0 {
			return fmt.Errorf("wtp: curve point %d has negative price", i)
		}
		if i > 0 {
			if p.MinSatisfaction <= c[i-1].MinSatisfaction {
				return fmt.Errorf("wtp: curve thresholds must strictly increase")
			}
			if p.Price < c[i-1].Price {
				return fmt.Errorf("wtp: curve prices must be non-decreasing")
			}
		}
	}
	return nil
}

// Price returns the willingness to pay at a satisfaction level (0 below the
// first threshold).
func (c PriceCurve) Price(satisfaction float64) float64 {
	price := 0.0
	for _, p := range c {
		if satisfaction >= p.MinSatisfaction {
			price = p.Price
		}
	}
	return price
}

// DatasetMeta carries the intrinsic properties of a contributing dataset
// that constraints are checked against.
type DatasetMeta struct {
	Dataset       string
	UpdatedAt     time.Time
	Author        string
	HasProvenance bool
}

// Constraints are the intrinsic-property requirements of a WTP-function
// (paper §3.2.2.1: expiry date, freshness, authorship, provenance, quality).
type Constraints struct {
	// MaxAge rejects datasets older than this (0 = no limit). The paper's
	// example: "data not older than 2 months, fearing concept drift".
	MaxAge time.Duration
	// Now anchors freshness checks (defaults to time.Now).
	Now time.Time
	// RequireProvenance rejects mashups with sources lacking lineage info.
	RequireProvenance bool
	// AllowedAuthors restricts dataset authorship (empty = anyone).
	AllowedAuthors []string
	// MaxMissingRatio bounds the fraction of NULL cells in the mashup.
	MaxMissingRatio float64
	// MinRows is the minimum mashup size.
	MinRows int
}

// Check verifies the mashup and its sources against the constraints,
// returning a reason string when violated.
func (c Constraints) Check(m *relation.Relation, sources []DatasetMeta) (bool, string) {
	if c.MinRows > 0 && m.NumRows() < c.MinRows {
		return false, fmt.Sprintf("mashup has %d rows, need %d", m.NumRows(), c.MinRows)
	}
	if c.MaxMissingRatio > 0 && m.MissingRatio() > c.MaxMissingRatio {
		return false, fmt.Sprintf("missing ratio %.2f exceeds %.2f", m.MissingRatio(), c.MaxMissingRatio)
	}
	now := c.Now
	if now.IsZero() {
		now = time.Now()
	}
	allowed := map[string]bool{}
	for _, a := range c.AllowedAuthors {
		allowed[a] = true
	}
	for _, s := range sources {
		if c.MaxAge > 0 && now.Sub(s.UpdatedAt) > c.MaxAge {
			return false, fmt.Sprintf("dataset %s older than %v", s.Dataset, c.MaxAge)
		}
		if c.RequireProvenance && !s.HasProvenance {
			return false, fmt.Sprintf("dataset %s lacks provenance", s.Dataset)
		}
		if len(allowed) > 0 && !allowed[s.Author] {
			return false, fmt.Sprintf("dataset %s author %q not allowed", s.Dataset, s.Author)
		}
	}
	return true, ""
}

// Function is a complete WTP-function.
type Function struct {
	Buyer string
	// Purpose declares what the buyer will use the data for; the arbiter's
	// contextual-integrity policy engine (internal/policy) checks every
	// dataset flow against it before a transaction completes (paper §4.4).
	Purpose     string
	Task        Task
	Curve       PriceCurve
	Constraints Constraints
	// Owned is data the buyer already has and will not pay for; the
	// evaluator appends it to candidate mashups before measuring
	// satisfaction (paper: "Packaged data that buyers may already own").
	Owned *relation.Relation
	// TrueValue is the buyer's private per-satisfaction valuation, used only
	// by the simulator to measure truthfulness; a strategic buyer's Curve
	// may understate it.
	TrueValue PriceCurve
}

// Validate checks the function is well formed.
func (f *Function) Validate() error {
	if f.Buyer == "" {
		return fmt.Errorf("wtp: function has no buyer")
	}
	if f.Task == nil {
		return fmt.Errorf("wtp: function has no task")
	}
	return f.Curve.Validate()
}

// Evaluation is the result of running a WTP-function against one mashup.
type Evaluation struct {
	Satisfaction float64
	Offer        float64 // price from the curve
	Rejected     bool
	Reason       string
}

// Evaluate runs the WTP pipeline: constraint check, optional owned-data
// union, task satisfaction, price lookup. This is the WTP-Evaluator of the
// DMMS architecture (paper Fig. 2).
func (f *Function) Evaluate(m *relation.Relation, sources []DatasetMeta) Evaluation {
	if ok, reason := f.Constraints.Check(m, sources); !ok {
		return Evaluation{Rejected: true, Reason: reason}
	}
	target := m
	if f.Owned != nil {
		if merged, err := mergeOwned(m, f.Owned); err == nil {
			target = merged
		}
	}
	sat, err := f.Task.Satisfaction(target)
	if err != nil {
		return Evaluation{Rejected: true, Reason: err.Error()}
	}
	return Evaluation{Satisfaction: sat, Offer: f.Curve.Price(sat)}
}

// mergeOwned unions the owned rows into the mashup when schemas align, or
// extends the mashup with owned columns via a best-effort key join.
func mergeOwned(m, owned *relation.Relation) (*relation.Relation, error) {
	if m.Schema.Equal(owned.Schema) {
		it, err := relation.NewUnion(relation.NewScan(m), relation.NewScan(owned))
		if err != nil {
			return nil, err
		}
		out, err := relation.Materialize(it)
		if err != nil {
			return nil, err
		}
		out.Name = m.Name + "_union"
		return out, nil
	}
	// Find a shared column name to join on, preferring key-ish names.
	var shared []string
	for _, c := range owned.Schema {
		if m.Schema.Has(c.Name) {
			shared = append(shared, c.Name)
		}
	}
	if len(shared) == 0 {
		return m, nil
	}
	sort.Strings(shared)
	return relation.HashJoin(m, owned, relation.JoinPair{Left: shared[0], Right: shared[0]})
}
