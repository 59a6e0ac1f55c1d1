// Package insurance implements the data insurance market the paper sketches
// (§3.4, §7.1): "once a dataset has been assigned a price, it is possible to
// envision a data insurance market, where a different entity than the seller
// (i.e., the arbiter) takes liability for any legal problems caused by that
// data". Policies are priced from the dataset's market price and its
// residual re-identification risk (which the seller lowers by spending
// privacy budget); claims pay out from a premium-funded pool held in the
// market ledger.
package insurance

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ledger"
)

// PoolAccount is the ledger account holding premiums and paying claims.
const PoolAccount = "insurance-pool"

// RiskProfile summarizes a dataset's breach/re-identification exposure.
type RiskProfile struct {
	// Epsilon is the differential-privacy budget already spent protecting
	// the dataset; higher epsilon = weaker protection = higher risk.
	Epsilon float64
	// HasDirectIdentifiers marks datasets that still carry direct PII.
	HasDirectIdentifiers bool
	// Records scales exposure with the number of affected individuals.
	Records int
}

// RiskScore maps a profile to [0,1]: the modeled probability that a claim
// event occurs during one policy period.
func (r RiskProfile) RiskScore() float64 {
	score := 0.02 // base rate
	if r.HasDirectIdentifiers {
		score += 0.25
	}
	// ε of 0 (never released raw) adds nothing; risk saturates by ε≈8.
	score += 0.1 * (1 - math.Exp(-r.Epsilon/4))
	// Volume factor saturates around 100k records.
	score += 0.1 * (1 - math.Exp(-float64(r.Records)/1e5))
	if score > 1 {
		score = 1
	}
	return score
}

// Policy insures one dataset sale.
type Policy struct {
	ID        string
	Dataset   string
	Holder    string // the insured party (seller or arbiter)
	Coverage  float64
	Premium   float64
	Risk      float64
	Active    bool
	ClaimPaid float64
}

// Insurer prices and manages policies against a market ledger.
type Insurer struct {
	mu sync.Mutex
	// LoadFactor is the premium markup over expected loss (>=1 keeps the
	// pool solvent in expectation).
	LoadFactor float64
	ledger     *ledger.Ledger
	policies   map[string]*Policy
	nextID     int
}

// New creates an insurer whose pool account lives in the given ledger.
func New(l *ledger.Ledger, loadFactor float64) (*Insurer, error) {
	if loadFactor < 1 {
		return nil, fmt.Errorf("insurance: load factor %v < 1 would be insolvent in expectation", loadFactor)
	}
	if err := l.Open(PoolAccount, 0); err != nil {
		return nil, err
	}
	return &Insurer{LoadFactor: loadFactor, ledger: l, policies: map[string]*Policy{}}, nil
}

// Quote prices a policy: premium = risk · coverage · load.
func (in *Insurer) Quote(risk RiskProfile, coverage float64) float64 {
	return risk.RiskScore() * coverage * in.LoadFactor
}

// Underwrite sells a policy to holder, moving the premium into the pool.
func (in *Insurer) Underwrite(dataset, holder string, risk RiskProfile, coverage float64) (*Policy, error) {
	if coverage <= 0 {
		return nil, fmt.Errorf("insurance: coverage must be positive")
	}
	premium := in.Quote(risk, coverage)
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.ledger.Transfer(holder, PoolAccount, ledger.FromFloat(premium), "premium "+dataset); err != nil {
		return nil, err
	}
	in.nextID++
	p := &Policy{
		ID:       fmt.Sprintf("pol-%04d", in.nextID),
		Dataset:  dataset,
		Holder:   holder,
		Coverage: coverage,
		Premium:  premium,
		Risk:     risk.RiskScore(),
		Active:   true,
	}
	in.policies[p.ID] = p
	return p, nil
}

// Claim pays out up to the remaining coverage for a loss event (e.g. a
// de-anonymization despite the seller's best efforts, §7.1). Payouts are
// limited by pool solvency: the pool never overdrafts.
func (in *Insurer) Claim(policyID string, loss float64) (paid float64, err error) {
	if loss <= 0 {
		return 0, fmt.Errorf("insurance: loss must be positive")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p, ok := in.policies[policyID]
	if !ok {
		return 0, fmt.Errorf("insurance: no policy %q", policyID)
	}
	if !p.Active {
		return 0, fmt.Errorf("insurance: policy %q inactive", policyID)
	}
	remaining := p.Coverage - p.ClaimPaid
	pay := loss
	if pay > remaining {
		pay = remaining
	}
	pool := in.ledger.Balance(PoolAccount).Float()
	if pay > pool {
		pay = pool
	}
	if pay <= 0 {
		return 0, fmt.Errorf("insurance: policy %q exhausted or pool empty", policyID)
	}
	if err := in.ledger.Transfer(PoolAccount, p.Holder, ledger.FromFloat(pay), "claim "+policyID); err != nil {
		return 0, err
	}
	p.ClaimPaid += pay
	if p.ClaimPaid >= p.Coverage {
		p.Active = false
	}
	return pay, nil
}
