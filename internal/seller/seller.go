// Package seller implements the Seller Management Platform (paper §4.2):
// data packaging (bulk ingest of many relations), an anonymization pipeline
// composed from internal/privacy mechanisms, and accountability views that
// let a seller "track how their datasets are being sold in the market, e.g.,
// as part of what mashups" and which rows earned what.
package seller

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/license"
	"repro/internal/privacy"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// Platform is one seller's view onto the market.
type Platform struct {
	Name    string
	Arbiter *arbiter.Arbiter
	Budget  *privacy.Budget
	rng     *rand.Rand
}

// New creates a seller platform. The epsilon cap bounds total privacy loss
// per dataset across releases.
func New(name string, a *arbiter.Arbiter, epsilonCap float64, seed int64) *Platform {
	return &Platform{
		Name:    name,
		Arbiter: a,
		Budget:  privacy.NewBudget(epsilonCap),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// AnonymizeStep is one stage of the release pipeline.
type AnonymizeStep func(r *relation.Relation) (*relation.Relation, error)

// DropPII removes outright identifiers.
func (p *Platform) DropPII(cols ...string) AnonymizeStep {
	return func(r *relation.Relation) (*relation.Relation, error) {
		return privacy.DropColumns(r, cols...)
	}
}

// Laplace adds eps-DP noise to a numeric column, charging the budget.
func (p *Platform) Laplace(dataset, col string, eps, sensitivity float64) AnonymizeStep {
	return func(r *relation.Relation) (*relation.Relation, error) {
		if err := p.Budget.Spend(dataset, eps); err != nil {
			return nil, err
		}
		return privacy.LaplaceColumn(r, col, eps, sensitivity, p.rng)
	}
}

// KAnonymize generalizes a numeric quasi-identifier and suppresses rare
// combinations.
func (p *Platform) KAnonymize(numericQI string, width float64, quasi []string, k int) AnonymizeStep {
	return func(r *relation.Relation) (*relation.Relation, error) {
		g, err := privacy.GeneralizeNumeric(r, numericQI, width)
		if err != nil {
			return nil, err
		}
		return privacy.SuppressRare(g, quasi, k)
	}
}

// Share runs the anonymization pipeline and registers the result with the
// arbiter under the given license terms.
func (p *Platform) Share(id catalog.DatasetID, r *relation.Relation, terms license.Terms, steps ...AnonymizeStep) error {
	out := r
	var err error
	for _, step := range steps {
		out, err = step(out)
		if err != nil {
			return fmt.Errorf("seller %s: anonymize %s: %w", p.Name, id, err)
		}
	}
	meta := wtp.DatasetMeta{Dataset: string(id), UpdatedAt: time.Now(), Author: p.Name, HasProvenance: true}
	return p.Arbiter.ShareDataset(p.Name, id, out, meta, terms)
}

// ShareBulk registers many relations at once — "share datasets in bulk by
// pointing to a data lake" (paper §4.2). IDs derive from relation names.
func (p *Platform) ShareBulk(rels []*relation.Relation, terms license.Terms) ([]catalog.DatasetID, error) {
	var ids []catalog.DatasetID
	for _, r := range rels {
		id := catalog.DatasetID(p.Name + "/" + r.Name)
		if err := p.Share(id, r, terms); err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Earnings reports the seller's current market balance.
func (p *Platform) Earnings() float64 {
	return p.Arbiter.Ledger.Balance(p.Name).Float()
}

// SaleRecord is one accountability entry: a mashup that included the
// seller's data and what it earned them.
type SaleRecord struct {
	TxID    string
	Mashup  string
	Buyer   string
	Price   float64
	MyCut   float64
	MyData  []string // which of my datasets contributed
	AllData []string
}

// Accountability returns the seller's sale records from the arbiter's
// transaction history (paper §4.2 Accountability; §4.4 Transparency).
func (p *Platform) Accountability() []SaleRecord {
	var out []SaleRecord
	for _, tx := range p.Arbiter.History() {
		cut, ok := tx.SellerCuts[p.Name]
		var mine []string
		for _, ds := range tx.Datasets {
			if p.Arbiter.Catalog.Owner(catalog.DatasetID(ds)) == p.Name {
				mine = append(mine, ds)
			}
		}
		if !ok && len(mine) == 0 {
			continue
		}
		out = append(out, SaleRecord{
			TxID:    tx.ID,
			Mashup:  tx.Mashup.Name,
			Buyer:   tx.Buyer,
			Price:   tx.Price,
			MyCut:   cut,
			MyData:  mine,
			AllData: tx.Datasets,
		})
	}
	return out
}
