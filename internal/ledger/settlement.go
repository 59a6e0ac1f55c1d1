package ledger

import (
	"sort"
	"sync"
)

// Settlement is one cleared sale as derived from the engine's tx-settled
// events: what the buyer paid and how the revenue was carved up. It is the
// ledger-side mirror of an arbiter.Transaction, kept by a subscriber so
// settlement accounting survives independently of the arbiter's in-memory
// history.
type Settlement struct {
	TxID       string
	Epoch      uint64
	Buyer      string
	Price      Currency
	ArbiterCut Currency
	SellerCuts map[string]Currency
	// ExPost settlements escrow the deposit at delivery and price on the
	// buyer's later report, so their cuts are not yet final.
	ExPost bool
}

// credits sums the revenue fan-out (arbiter fee plus seller shares).
func (s Settlement) credits() Currency {
	total := s.ArbiterCut
	for _, c := range s.SellerCuts {
		total += c
	}
	return total
}

// SettlementBook records settlements consumed from the engine's event log
// and checks the market's conservation invariant: every settled price is
// fully accounted for by the arbiter cut plus the seller cuts.
type SettlementBook struct {
	mu          sync.Mutex
	settlements []Settlement
}

// NewSettlementBook creates a book holding recorded, in order. It adopts
// the slice rather than copying it (a restore hands over the settlements it
// just decoded); the caller must not change it afterwards.
func NewSettlementBook(recorded ...Settlement) *SettlementBook {
	return &SettlementBook{settlements: recorded}
}

// Record appends one settlement.
func (b *SettlementBook) Record(s Settlement) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.settlements = append(b.settlements, s)
}

// Count returns the number of recorded settlements.
func (b *SettlementBook) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.settlements)
}

// All returns every settlement in record order, read-only. The book only
// appends and never changes an entry, so this is the recorded prefix clipped
// to its length and capacity — later Records cannot reach into it — shared
// rather than copied: O(1) however long the book.
func (b *SettlementBook) All() []Settlement {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.settlements)
	return b.settlements[:n:n]
}

// Epochs returns the distinct epochs that produced settlements, ascending.
func (b *SettlementBook) Epochs() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := map[uint64]bool{}
	var out []uint64
	for _, s := range b.settlements {
		if !seen[s.Epoch] {
			seen[s.Epoch] = true
			out = append(out, s.Epoch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Debits sums what buyers paid across all upfront settlements.
func (b *SettlementBook) Debits() Currency {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total Currency
	for _, s := range b.settlements {
		if !s.ExPost {
			total += s.Price
		}
	}
	return total
}

// Credits sums what the arbiter and sellers received across all upfront
// settlements.
func (b *SettlementBook) Credits() Currency {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total Currency
	for _, s := range b.settlements {
		if !s.ExPost {
			total += s.credits()
		}
	}
	return total
}

// Conserved verifies credits == debits for every upfront settlement, within
// a per-settlement tolerance covering FromFloat rounding of the individual
// cuts (one micro-unit per cut plus one for the fee). Ex-post settlements
// are skipped: their revenue split happens at report time.
func (b *SettlementBook) Conserved() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.settlements {
		if s.ExPost {
			continue
		}
		diff := s.Price - s.credits()
		if diff < 0 {
			diff = -diff
		}
		if diff > Currency(len(s.SellerCuts)+1) {
			return false
		}
	}
	return true
}
