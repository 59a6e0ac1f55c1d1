// Package core is the public façade of the data market platform. It wires
// the full DMMS stack of the paper — catalog + metadata engine + index
// builder + DoD engine (the Mashup Builder, Fig. 3), the arbiter pipeline
// (Fig. 2) and a chosen market design (§3) — behind a single Platform type,
// so examples and services express the paper's scenarios in a few lines:
//
//	p, _ := core.NewPlatform(core.Options{Design: "external-vickrey"})
//	s := p.Seller("seller1")
//	s.Share("s1", rel, license.Terms{Kind: license.Open})
//	b := p.Buyer("b1", 1000)
//	b.Need("a", "b", "d").ForClassifier(...).PayingAt(0.8, 100).Submit()
//	res, _ := p.MatchRound()
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/arbiter"
	"repro/internal/buyer"
	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/seller"
	"repro/internal/wtp"
)

// Options configures a platform instance.
type Options struct {
	// Design is a label from market.StandardDesigns, or use CustomDesign.
	Design string
	// CustomDesign overrides Design when non-nil.
	CustomDesign *market.Design
	// EpsilonCap bounds per-dataset privacy budget on seller platforms.
	EpsilonCap float64
	// Seed drives seller-side randomized mechanisms.
	Seed int64
}

// Platform is a running DMMS instance. It is safe for concurrent use: the
// arbiter and ledger carry their own locks, and the seller/buyer registries
// here are guarded so concurrent dmms handlers and the engine's epoch runner
// can create participants in parallel.
type Platform struct {
	Arbiter *arbiter.Arbiter
	Design  *market.Design
	opts    Options

	mu      sync.RWMutex
	sellers map[string]*seller.Platform
	buyers  map[string]*buyer.Platform
	// Creation order, kept for snapshot/restore: seller mechanism seeds
	// derive from creation rank, so restores must replay the same order.
	sellerOrder []string
	buyerOrder  []string
}

// NewPlatform builds the platform with the requested market design.
func NewPlatform(opts Options) (*Platform, error) {
	d := opts.CustomDesign
	if d == nil {
		if opts.Design == "" {
			opts.Design = "external-vickrey"
		}
		reg := market.StandardDesigns()
		var err error
		d, err = reg.Get(opts.Design)
		if err != nil {
			return nil, err
		}
	}
	if opts.EpsilonCap <= 0 {
		opts.EpsilonCap = 4
	}
	a, err := arbiter.New(d)
	if err != nil {
		return nil, err
	}
	return &Platform{
		Arbiter: a,
		Design:  d,
		opts:    opts,
		sellers: map[string]*seller.Platform{},
		buyers:  map[string]*buyer.Platform{},
	}, nil
}

// Seller returns (creating on first use) the named seller's platform.
func (p *Platform) Seller(name string) *seller.Platform {
	p.mu.RLock()
	s, ok := p.sellers[name]
	p.mu.RUnlock()
	if ok {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.sellers[name]; ok {
		return s
	}
	// Sellers start with zero balance; they earn by selling.
	_ = p.Arbiter.RegisterParticipant(name, 0)
	s = seller.New(name, p.Arbiter, p.opts.EpsilonCap, p.opts.Seed+int64(len(p.sellers)))
	p.sellers[name] = s
	p.sellerOrder = append(p.sellerOrder, name)
	return s
}

// Buyer returns (creating on first use) the named buyer's platform, funding
// the account on creation.
func (p *Platform) Buyer(name string, funds float64) *buyer.Platform {
	p.mu.RLock()
	b, ok := p.buyers[name]
	p.mu.RUnlock()
	if ok {
		return b
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.buyers[name]; ok {
		return b
	}
	_ = p.Arbiter.RegisterParticipant(name, funds)
	b = buyer.New(name, p.Arbiter)
	p.buyers[name] = b
	p.buyerOrder = append(p.buyerOrder, name)
	return b
}

// MatchRound runs one arbiter matching round.
func (p *Platform) MatchRound() (*arbiter.MatchResult, error) {
	return p.Arbiter.MatchRound()
}

// AddUnmet commits a round's unmet-demand increments to the demand signals.
func (p *Platform) AddUnmet(cols map[string]int) {
	p.Arbiter.AddUnmet(cols)
}

// BuildCandidates builds (through the DoD engine's versioned candidate
// cache) the mashup candidates for one want. Safe to call concurrently with
// intake; only catalog mutations serialize against it. ctx cancels or bounds
// the build (the configured build deadline applies on top); an abandoned
// build resolves to a failed set.
func (p *Platform) BuildCandidates(ctx context.Context, want dod.Want) *dod.CandidateSet {
	return p.Arbiter.BuildFor(ctx, want)
}

// PriceRoundFor runs the price stage over the given open requests,
// consuming pre-built candidate sets (keyed by Want.Key()) where still
// valid. A nil map prices with inline builds.
// ctx bounds inline rebuilds forced by stale or missing sets.
func (p *Platform) PriceRoundFor(ctx context.Context, ids []string, prebuilt map[string]*dod.CandidateSet) (*arbiter.MatchResult, error) {
	return p.Arbiter.PriceRound(ctx, ids, prebuilt)
}

// DoDCacheStats snapshots the DoD engine's candidate-cache counters for the
// engine's stats surface.
func (p *Platform) DoDCacheStats() dod.CacheStats {
	return p.Arbiter.DoD().CacheStats()
}

// OpenRequestCount reports how many requests are currently unmatched —
// scrape-friendly (no ID slice allocation).
func (p *Platform) OpenRequestCount() int {
	return p.Arbiter.OpenCount()
}

// UnmetWantCount reports how many distinct wanted columns carry unmet-demand
// signals.
func (p *Platform) UnmetWantCount() int {
	return p.Arbiter.UnmetWantCount()
}

// SetBuildObserver installs fn to observe each DoD build's wall-clock
// seconds (telemetry only; nil removes it).
func (p *Platform) SetBuildObserver(fn func(seconds float64)) {
	p.Arbiter.DoD().SetBuildHook(fn)
}

// SetDoDCacheConfig bounds the DoD candidate cache.
func (p *Platform) SetDoDCacheConfig(cfg dod.CacheConfig) {
	p.Arbiter.DoD().SetCacheConfig(cfg)
}

// SetBuildDeadline bounds every DoD build: a build outrunning d resolves to
// a failed candidate set instead of wedging its caller. Zero disables.
func (p *Platform) SetBuildDeadline(d time.Duration) {
	p.Arbiter.DoD().SetBuildDeadline(d)
}

// --- engine hooks ---------------------------------------------------------
//
// The concurrent market engine (internal/engine) drives the platform through
// these methods rather than reaching into the arbiter, so the platform stays
// the single seam between coordination and clearing.

// RegisterParticipant opens a ledger account with initial funds.
func (p *Platform) RegisterParticipant(name string, funds float64) error {
	return p.Arbiter.RegisterParticipant(name, funds)
}

// HasAccount reports whether a participant's ledger account is open.
func (p *Platform) HasAccount(name string) bool {
	return p.Arbiter.Ledger.Exists(name)
}

// ShareDataset ingests a dataset on a seller's behalf, creating the seller's
// platform (and zero-balance account) on first use.
func (p *Platform) ShareDataset(sellerName string, id catalog.DatasetID, rel *relation.Relation,
	meta wtp.DatasetMeta, terms license.Terms) error {
	p.Seller(sellerName)
	return p.Arbiter.ShareDataset(sellerName, id, rel, meta, terms)
}

// SubmitRequest files a buyer's data need with the arbiter.
func (p *Platform) SubmitRequest(want dod.Want, f *wtp.Function) (string, error) {
	return p.Arbiter.SubmitRequest(want, f)
}

// Summary renders the platform state for CLI display.
func (p *Platform) Summary() string {
	return fmt.Sprintf("design=%s datasets=%d transactions=%d arbiter_fees=%.2f",
		p.Design.Label, p.Arbiter.Catalog.Len(), p.Arbiter.Settled(),
		p.Arbiter.Ledger.Balance(arbiter.ArbiterAccount).Float())
}
