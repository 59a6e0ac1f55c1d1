package market

import (
	"fmt"
	"sort"
)

// Goal is what the market design optimizes (paper §3.1: "maximize revenue,
// optimize social surplus, and others").
type Goal string

// Market goals.
const (
	GoalRevenue Goal = "revenue"
	GoalWelfare Goal = "welfare"
	GoalVolume  Goal = "volume"
)

// Type is the market environment (paper §3.3).
type Type string

// Market types.
const (
	TypeExternal Type = "external" // across organizations, money
	TypeInternal Type = "internal" // within an organization, bonus points
	TypeBarter   Type = "barter"   // data/services as the incentive
)

// Elicitation selects the protocol buyers use to communicate value
// (paper §3.2.2): up-front WTP-functions or ex-post reporting.
type Elicitation string

// Elicitation protocols.
const (
	ElicitUpfront Elicitation = "upfront"
	ElicitExPost  Elicitation = "expost"
)

// Design bundles the five components of a market design (paper §3.1) with
// its goal and type. Designs are plug'n'play: the arbiter accepts any Design
// and the simulator can stress any Design before deployment (paper Fig. 1).
type Design struct {
	Label       string
	Goal        Goal
	Type        Type
	Elicitation Elicitation
	// Mechanism couples allocation + payment.
	Mechanism Mechanism
	// Revenue allocation across contributing datasets.
	Allocator Allocator
	// ArbiterFee is the fraction of revenue the arbiter retains to fund
	// operations (and the data-insurance pool, paper §3.4).
	ArbiterFee float64
}

// Validate checks the design is complete and coherent.
func (d *Design) Validate() error {
	if d.Label == "" {
		return fmt.Errorf("market: design has no label")
	}
	if d.Mechanism == nil {
		return fmt.Errorf("market: design %q has no mechanism", d.Label)
	}
	if d.Allocator == nil {
		return fmt.Errorf("market: design %q has no revenue allocator", d.Label)
	}
	if d.ArbiterFee < 0 || d.ArbiterFee >= 1 {
		return fmt.Errorf("market: design %q arbiter fee %v out of [0,1)", d.Label, d.ArbiterFee)
	}
	if d.Elicitation == ElicitExPost {
		if _, ok := d.Mechanism.(ExPost); !ok {
			return fmt.Errorf("market: design %q declares ex-post elicitation but mechanism %s", d.Label, d.Mechanism.Name())
		}
	}
	return nil
}

// RevenueSplit is the final division of one sale's revenue.
type RevenueSplit struct {
	ArbiterCut float64
	SellerCut  map[string]float64 // seller -> amount
}

// ShareRevenue implements the revenue-sharing component (paper §3.2.3): the
// revenue of a sold mashup is allocated to its datasets by the design's
// Allocator and then forwarded to each dataset's owner (see
// RevenueFractions).
func (d *Design) ShareRevenue(total float64, datasets []string, owners map[string]string, vf ValueFunc) RevenueSplit {
	if total <= 0 {
		return RevenueSplit{SellerCut: map[string]float64{}}
	}
	return d.ShareFractions(total, d.RevenueFractions(datasets, owners, vf))
}

// RevenueFractions computes the normalized per-owner fractions of the
// post-fee revenue pool — the allocation step of ShareRevenue, independent
// of the sale amount. The players are the datasets, in the order given (the
// arbiter passes a mashup's sorted Datasets); the game is vf, or AllOf the
// datasets when vf is nil. Ex-post settlement fixes these fractions at
// delivery time and persists them, so the split applied when the buyer later
// reports is a pure function of durable state. Returns nil when there are no
// datasets (the arbiter then keeps the whole amount).
func (d *Design) RevenueFractions(datasets []string, owners map[string]string, vf ValueFunc) map[string]float64 {
	if len(datasets) == 0 {
		return nil
	}
	if vf == nil {
		vf = AllOf(datasets)
	}
	weights := d.Allocator.Allocate(datasets, vf)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	if wsum == 0 {
		// Nothing had marginal value; split uniformly so sellers are still
		// compensated for participation.
		weights = Uniform{}.Allocate(datasets, vf)
		wsum = 1
	}
	fracs := map[string]float64{}
	for _, ds := range datasets {
		owner := owners[ds]
		if owner == "" {
			owner = ds
		}
		fracs[owner] += weights[ds] / wsum
	}
	return fracs
}

// ShareFractions divides one sale's revenue by pre-computed owner
// fractions: the arbiter takes its fee and each owner receives its fraction
// of the remaining pool. With no fractions the arbiter keeps everything.
func (d *Design) ShareFractions(total float64, fracs map[string]float64) RevenueSplit {
	split := RevenueSplit{SellerCut: map[string]float64{}}
	if total <= 0 {
		return split
	}
	split.ArbiterCut = total * d.ArbiterFee
	pool := total - split.ArbiterCut
	if len(fracs) == 0 {
		split.ArbiterCut = total
		return split
	}
	for owner, f := range fracs {
		split.SellerCut[owner] = pool * f
	}
	return split
}

// AllOf is the coalition game of a mashup built from datasets: v(S) = 1 if
// S holds every one of them, else 0. It is the "reverse engineering of f()"
// for the plans the DoD engine builds. Each is a chain of inner joins over
// distinct datasets, so every mashup row comes from one row of each dataset,
// and no row survives without all of them (see dod.Candidate.Datasets).
// An empty dataset list is worth nothing.
func AllOf(datasets []string) ValueFunc {
	return func(coalition map[string]bool) float64 {
		if len(datasets) == 0 {
			return 0
		}
		for _, ds := range datasets {
			if !coalition[ds] {
				return 0
			}
		}
		return 1
	}
}

// Registry is the plug'n'play catalog of named designs a DMMS deployment
// exposes (paper: "permit the declaration of a wide variety of market
// designs ... and their deployment on the same software platform").
type Registry struct {
	designs map[string]*Design
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{designs: map[string]*Design{}} }

// Register validates and stores a design under its label.
func (r *Registry) Register(d *Design) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, ok := r.designs[d.Label]; ok {
		return fmt.Errorf("market: design %q already registered", d.Label)
	}
	r.designs[d.Label] = d
	return nil
}

// Get returns a design by label.
func (r *Registry) Get(label string) (*Design, error) {
	d, ok := r.designs[label]
	if !ok {
		return nil, fmt.Errorf("market: no design %q (have %v)", label, r.Labels())
	}
	return d, nil
}

// Labels lists registered designs, sorted.
func (r *Registry) Labels() []string {
	out := make([]string, 0, len(r.designs))
	for l := range r.designs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// StandardDesigns returns the designs the paper's scenarios call for:
// revenue-maximizing external markets, welfare-maximizing internal markets,
// a barter market, the posted-price status quo, and the ex-post protocol.
func StandardDesigns() *Registry {
	r := NewRegistry()
	must := func(d *Design) {
		if err := r.Register(d); err != nil {
			panic(err)
		}
	}
	must(&Design{
		Label: "external-rsop", Goal: GoalRevenue, Type: TypeExternal,
		Elicitation: ElicitUpfront, Mechanism: RSOP{Seed: 7},
		Allocator: ShapleyExact{}, ArbiterFee: 0.05,
	})
	must(&Design{
		Label: "external-vickrey", Goal: GoalRevenue, Type: TypeExternal,
		Elicitation: ElicitUpfront, Mechanism: SecondPrice{Reserve: 0},
		Allocator: ShapleyExact{}, ArbiterFee: 0.05,
	})
	// Internal markets maximize allocation, not revenue: a low nominal
	// point price keeps nearly every beneficial trade while still rewarding
	// the sharing department with bonus points.
	must(&Design{
		Label: "internal-welfare", Goal: GoalWelfare, Type: TypeInternal,
		Elicitation: ElicitUpfront, Mechanism: PostedPrice{P: 10},
		Allocator: Uniform{}, ArbiterFee: 0,
	})
	must(&Design{
		Label: "posted-baseline", Goal: GoalRevenue, Type: TypeExternal,
		Elicitation: ElicitUpfront, Mechanism: PostedPrice{P: 100},
		Allocator: LeaveOneOut{}, ArbiterFee: 0.05,
	})
	must(&Design{
		Label: "expost-audited", Goal: GoalVolume, Type: TypeExternal,
		Elicitation: ElicitExPost, Mechanism: ExPost{Deposit: 500, AuditProb: 0.3, Penalty: 4},
		Allocator: ShapleyExact{}, ArbiterFee: 0.05,
	})
	return r
}
