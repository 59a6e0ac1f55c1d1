// Package buyer implements the Buyer Management Platform (paper §4.3):
// helpers to define WTP-functions without hand-writing them (a builder over
// tasks, price curves, purposes and data the buyer already owns) and
// submission of data needs to the arbiter.
package buyer

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/dod"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// Platform is one buyer's view onto the market.
type Platform struct {
	Name    string
	Arbiter *arbiter.Arbiter
}

// New creates a buyer platform.
func New(name string, a *arbiter.Arbiter) *Platform {
	return &Platform{Name: name, Arbiter: a}
}

// Builder assembles a WTP-function fluently. Zero-config defaults: coverage
// task over the wanted columns, single-point price curve.
type Builder struct {
	platform *Platform
	want     dod.Want
	fn       wtp.Function
}

// Need starts a request for the given target columns.
func (p *Platform) Need(columns ...string) *Builder {
	b := &Builder{platform: p}
	b.want.Columns = columns
	b.fn.Buyer = p.Name
	return b
}

// ForClassifier sets the task: train the model on features predicting label;
// satisfaction is held-out accuracy (the paper's running example).
func (b *Builder) ForClassifier(model mltask.ModelKind, features []string, label string, seed int64) *Builder {
	b.fn.Task = wtp.ClassifierTask{Spec: mltask.ClassifierTask{
		Features: features, Label: label, Model: model, Seed: seed}}
	return b
}

// ForCoverage sets a relational completeness task.
func (b *Builder) ForCoverage(wantRows int) *Builder {
	b.fn.Task = wtp.CoverageTask{Columns: b.want.Columns, WantRows: wantRows}
	return b
}

// PayingAt adds a price-curve point: pay `price` once satisfaction reaches
// `minSat` ("$100 at 80% accuracy, $150 beyond 90%").
func (b *Builder) PayingAt(minSat, price float64) *Builder {
	b.fn.Curve = append(b.fn.Curve, wtp.CurvePoint{MinSatisfaction: minSat, Price: price})
	return b
}

// TrueValueAt records the buyer's private valuation (for simulation and
// regret accounting); strategic buyers may bid below it.
func (b *Builder) TrueValueAt(minSat, value float64) *Builder {
	b.fn.TrueValue = append(b.fn.TrueValue, wtp.CurvePoint{MinSatisfaction: minSat, Price: value})
	return b
}

// ForPurpose declares the intended use of the data; the arbiter's
// contextual-integrity policy checks every dataset flow against it (§4.4).
func (b *Builder) ForPurpose(purpose string) *Builder {
	b.fn.Purpose = purpose
	return b
}

// Owning attaches data the buyer already has; it is blended into candidate
// mashups before satisfaction is measured and is never paid for.
func (b *Builder) Owning(r *relation.Relation) *Builder {
	b.fn.Owned = r
	return b
}

// Submit files the request with the arbiter and returns its ID.
func (b *Builder) Submit() (string, error) {
	if b.fn.Task == nil {
		b.fn.Task = wtp.CoverageTask{Columns: b.want.Columns, WantRows: 1}
	}
	if len(b.fn.Curve) == 0 {
		return "", fmt.Errorf("buyer %s: no price curve; call PayingAt", b.platform.Name)
	}
	return b.platform.Arbiter.SubmitRequest(b.want, &b.fn)
}

// Balance returns the buyer's remaining funds.
func (p *Platform) Balance() float64 {
	return p.Arbiter.Ledger.Balance(p.Name).Float()
}
