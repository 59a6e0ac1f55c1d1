// Package license implements data licensing (paper §4.4): sellers attach
// licenses to datasets conferring different rights — open resale, no-resale,
// exclusive access (with an exclusivity tax), or full ownership transfer.
// Licensing is also what makes the arbitrageur economy of §7.1 possible: a
// resale-allowed license lets a buyer transform a dataset and sell it back to
// the market.
//
// A Manager is market state sized by datasets, not by sales: every dataset's
// terms, plus one Holder per exclusive or transfer dataset, written by the
// dataset's first sale. Open and no-resale sales record nothing here; who
// bought what is the arbiter's purchase history. Exclusivity is scarcity
// within one matching round: Terms.Supply sells an exclusive or transfer
// dataset to one buyer per round, and a later round may sell it again. The
// holder stays the first buyer, and only the holder owes the exclusivity tax.
package license

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Kind enumerates license types.
type Kind string

// License kinds.
const (
	// Open permits use and resale of derivatives.
	Open Kind = "open"
	// NoResale permits use but forbids reselling the data or derivatives.
	NoResale Kind = "no-resale"
	// Exclusive grants a single buyer sole access; the artificial scarcity
	// costs an ongoing exclusivity tax (paper: buyers "could be forced to
	// pay a 'tax' so long they maintain the exclusivity access").
	Exclusive Kind = "exclusive"
	// Transfer moves ownership entirely to the buyer.
	Transfer Kind = "transfer"
)

// Terms are the license terms attached to a dataset.
type Terms struct {
	Kind Kind `json:"kind"`
	// ExclusivityTaxRate is the per-period tax as a fraction of sale price
	// (Exclusive only).
	ExclusivityTaxRate float64 `json:"tax_rate,omitempty"`
}

// Validate checks coherence.
func (t Terms) Validate() error {
	switch t.Kind {
	case Open, NoResale, Transfer:
		if t.ExclusivityTaxRate != 0 {
			return fmt.Errorf("license: %s terms cannot carry an exclusivity tax", t.Kind)
		}
	case Exclusive:
		if t.ExclusivityTaxRate < 0 {
			return fmt.Errorf("license: negative exclusivity tax")
		}
	default:
		return fmt.Errorf("license: unknown kind %q", t.Kind)
	}
	return nil
}

// Supply returns the mechanism supply implied by the license: exclusive and
// transfer licenses sell one copy per round; open and no-resale data is
// freely replicable (unlimited supply, the paper's §3.2.1 headache).
func (t Terms) Supply() int {
	if t.Kind == Exclusive || t.Kind == Transfer {
		return 1
	}
	return -1 // market.SupplyUnlimited
}

// CanResell reports whether a licensee under these terms may resell data
// derived from the dataset.
func (t Terms) CanResell() bool {
	return t.Kind == Open || t.Kind == Transfer
}

// Holder is the license an exclusive or transfer dataset's first sale
// conferred: the buyer, the sale price and the terms at that sale.
type Holder struct {
	Beneficiary string  `json:"beneficiary"`
	SalePrice   float64 `json:"sale_price"`
	Terms       Terms   `json:"terms"`
}

// TaxDue returns the exclusivity tax the holder owes for one period.
func (h Holder) TaxDue() float64 {
	if h.Terms.Kind != Exclusive {
		return 0
	}
	return h.SalePrice * h.Terms.ExclusivityTaxRate
}

// Manager tracks dataset terms and the holders of exclusive and transfer
// datasets.
type Manager struct {
	mu      sync.Mutex
	terms   map[string]Terms
	holders map[string]Holder
}

// NewManager creates an empty manager.
func NewManager() *Manager {
	return &Manager{terms: map[string]Terms{}, holders: map[string]Holder{}}
}

// SetTerms attaches license terms to a dataset. A holder keeps the terms it
// bought under.
func (m *Manager) SetTerms(dataset string, t Terms) error {
	if err := t.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terms[dataset] = t
	return nil
}

// TermsFor returns the terms for a dataset (Open by default).
func (m *Manager) TermsFor(dataset string) Terms {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.terms[dataset]; ok {
		return t
	}
	return Terms{Kind: Open}
}

// Issue licenses a sale of the dataset. The first sale of an exclusive or
// transfer dataset makes the beneficiary its holder; every other sale leaves
// the manager unchanged.
func (m *Manager) Issue(dataset, beneficiary string, price float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := m.holders[dataset]; held {
		return
	}
	if t := m.terms[dataset]; t.Supply() == 1 {
		m.holders[dataset] = Holder{Beneficiary: beneficiary, SalePrice: price, Terms: t}
	}
}

// HolderOf returns the holder of an exclusive or transfer dataset, if it has
// been sold.
func (m *Manager) HolderOf(dataset string) (Holder, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.holders[dataset]
	return h, ok
}

// Holders returns a copy of every holder by dataset, for snapshots.
func (m *Manager) Holders() map[string]Holder {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.holders)
}

// RestoreHolders reinstates a snapshot's holders.
func (m *Manager) RestoreHolders(holders map[string]Holder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	maps.Copy(m.holders, holders)
}

// PeriodTaxes returns the exclusivity taxes due this period per beneficiary,
// summed in dataset order so the floats do not depend on map order.
func (m *Manager) PeriodTaxes() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]float64{}
	for _, ds := range slices.Sorted(maps.Keys(m.holders)) {
		if h := m.holders[ds]; h.TaxDue() > 0 {
			out[h.Beneficiary] += h.TaxDue()
		}
	}
	return out
}
