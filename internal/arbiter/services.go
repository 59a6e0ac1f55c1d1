package arbiter

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/relation"
)

// DemandSignal reports how often a column was wanted but unavailable.
// "Because the arbiter knows that b1 would benefit from attribute ⟨e⟩ ...
// the arbiter can ask Seller 3 to obtain a dataset s3 = ⟨e⟩ for money"
// (paper §7.1, opportunistic data sellers).
type DemandSignal struct {
	Column string
	Count  int
}

// DemandSignals returns unmet demand sorted by intensity.
func (a *Arbiter) DemandSignals() []DemandSignal {
	a.mu.Lock()
	defer a.mu.Unlock()
	return DemandFromCounts(a.unmet)
}

// DemandFromCounts turns per-column unmet counts (UnmetCounts, possibly
// summed over several arbiters) into demand signals, strongest first.
func DemandFromCounts(counts map[string]int) []DemandSignal {
	out := make([]DemandSignal, 0, len(counts))
	for c, n := range counts {
		out = append(out, DemandSignal{Column: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// InfoRequest is the arbiter's ask during a negotiation round: "explain how
// to transform an attribute so it joins with another one, or ... mapping
// tables" (paper §4.1).
type InfoRequest struct {
	Dataset string
	Column  string // the attribute the arbiter holds (e.g. f_d)
	Target  string // the attribute buyers want (e.g. d)
}

// SellerResponder is how a seller answers an info request: with a mapping
// table relation (fromCol/toCol = Column/Target) or example pairs. A nil
// response declines.
type SellerResponder func(req InfoRequest) *relation.Relation

// NegotiationRound scans unmet demand against shared datasets, asks owners
// (via their responders) for transformation info, and registers any
// contributed mappings with the DoD engine. It returns the number of
// transforms learned. Sellers are incentivized to respond: transforms make
// their datasets appear in more mashups and hence earn more revenue.
func (a *Arbiter) NegotiationRound(responders map[string]SellerResponder) int {
	a.mu.Lock()
	signals := make([]DemandSignal, 0, len(a.unmet))
	for c, n := range a.unmet {
		signals = append(signals, DemandSignal{Column: c, Count: n})
	}
	sort.Slice(signals, func(i, j int) bool { return signals[i].Column < signals[j].Column })
	ids := a.Catalog.IDs()
	a.mu.Unlock()

	learned := 0
	for _, sig := range signals {
		for _, id := range ids {
			owner := a.Catalog.Owner(id)
			respond, ok := responders[owner]
			if !ok {
				continue
			}
			rel, err := a.Catalog.Get(id)
			if err != nil {
				continue
			}
			for _, col := range rel.Schema.Names() {
				if col == sig.Column {
					continue
				}
				req := InfoRequest{Dataset: string(id), Column: col, Target: sig.Column}
				table := respond(req)
				if table == nil {
					continue
				}
				t, err := dod.MappingFromRelation(
					fmt.Sprintf("%s.%s->%s", id, col, sig.Column), table, col, sig.Column)
				if err != nil {
					continue
				}
				a.DoD().RegisterTransform(id, col, sig.Column, t)
				learned++
			}
		}
	}
	return learned
}

// AskOpportunisticSeller invites a seller to supply a dataset covering the
// hottest unmet column; the provided fetch function plays the role of Seller
// 3's data-collection effort (paper §7.1). The fetched dataset is shared
// into the market under the seller's name.
func (a *Arbiter) AskOpportunisticSeller(seller string, fetch func(column string) *relation.Relation) (catalog.DatasetID, error) {
	signals := a.DemandSignals()
	if len(signals) == 0 {
		return "", fmt.Errorf("arbiter: no unmet demand")
	}
	// Offer the hottest signals first; the seller declines what they cannot
	// obtain by returning nil.
	var col string
	var rel *relation.Relation
	for _, sig := range signals {
		if got := fetch(sig.Column); got != nil {
			col, rel = sig.Column, got
			break
		}
	}
	if rel == nil {
		return "", fmt.Errorf("arbiter: seller %s declined all %d demand signals", seller, len(signals))
	}
	if !rel.Schema.Has(col) {
		return "", fmt.Errorf("arbiter: fetched dataset lacks column %q", col)
	}
	id := catalog.DatasetID(fmt.Sprintf("%s-%s", seller, col))
	err := a.ShareDataset(seller, id, rel, metaNow(string(id)), openTerms())
	if err != nil {
		return "", err
	}
	a.mu.Lock()
	delete(a.unmet, col)
	a.mu.Unlock()
	return id, nil
}
