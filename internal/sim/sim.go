// Package sim is the market simulator of the platform (paper §6.1): "a
// framework to evaluate how resilient a market design is under adversarial,
// evil, and faulty processes". Market designs sound on paper assume rational
// players; the simulator populates the market with truthful, strategic,
// risk-loving, ignorant, faulty and coalition-forming adversarial agents and
// measures revenue, welfare, allocation efficiency and — critically —
// whether truthful participation remains the best strategy (incentive
// compatibility in practice, not just on paper).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/market"
)

// Behavior is an agent's bidding strategy.
type Behavior string

// Agent behaviours (paper §6.1: "model adversarial, coalition-building, as
// well as risky and ignorant players").
const (
	// Truthful bids the private value.
	Truthful Behavior = "truthful"
	// Strategic shades bids below value to capture surplus.
	Strategic Behavior = "strategic"
	// Adversarial joins a coalition that coordinates on a low common bid to
	// suppress the clearing price.
	Adversarial Behavior = "adversarial"
	// Ignorant bids noise around the value (does not know how to play).
	Ignorant Behavior = "ignorant"
	// RiskLover overbids to win more often.
	RiskLover Behavior = "risklover"
	// Faulty is buggy software: occasionally bids zero or an absurd value.
	Faulty Behavior = "faulty"
)

// AllBehaviors lists every behaviour.
func AllBehaviors() []Behavior {
	return []Behavior{Truthful, Strategic, Adversarial, Ignorant, RiskLover, Faulty}
}

// Config parameterizes a simulation.
type Config struct {
	Rounds    int
	NumBuyers int
	// Mix gives the fraction of buyers per behaviour; normalized internally.
	Mix map[Behavior]float64
	// ValueMean/ValueStd parameterize the lognormal-ish valuation draw.
	ValueMean float64
	ValueStd  float64
	// Supply per round (market.SupplyUnlimited for replicable data).
	Supply int
	// ShadeFactor is the strategic bid fraction (default 0.7).
	ShadeFactor float64
	// CoalitionBid is the adversarial coordinated bid as a fraction of the
	// coalition's mean value (default 0.3).
	CoalitionBid float64
	Seed         int64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.NumBuyers <= 0 {
		c.NumBuyers = 20
	}
	if c.ValueMean <= 0 {
		c.ValueMean = 100
	}
	if c.ValueStd < 0 {
		c.ValueStd = 30
	}
	if c.ShadeFactor <= 0 {
		c.ShadeFactor = 0.7
	}
	if c.CoalitionBid <= 0 {
		c.CoalitionBid = 0.3
	}
	if len(c.Mix) == 0 {
		c.Mix = map[Behavior]float64{Truthful: 1}
	}
	if c.Supply == 0 {
		c.Supply = market.SupplyUnlimited
	}
	return c
}

// agent is one simulated buyer.
type agent struct {
	name     string
	behavior Behavior
	value    float64 // redrawn per round
}

// Metrics aggregates simulation outcomes.
type Metrics struct {
	Design  string
	Mix     string
	Rounds  int
	Revenue float64 // total across rounds
	Welfare float64 // sum of winners' true values
	Volume  int     // number of sales
	// Efficiency is welfare achieved / maximum achievable welfare.
	Efficiency float64
	// UtilityByBehavior is the mean per-round utility (value - price for
	// wins) per behaviour class.
	UtilityByBehavior map[Behavior]float64
	// TruthfulPremium = mean truthful utility - mean strategic utility.
	// Positive under incentive-compatible designs.
	TruthfulPremium float64
	// OverpayRate is the fraction of sales where price exceeded the
	// winner's true value (buyer regret events).
	OverpayRate float64
}

// String renders a compact report row.
func (m Metrics) String() string {
	return fmt.Sprintf("%-18s %-28s rev=%9.0f welfare=%9.0f vol=%5d eff=%.3f premium=%+7.2f overpay=%.3f",
		m.Design, m.Mix, m.Revenue, m.Welfare, m.Volume, m.Efficiency, m.TruthfulPremium, m.OverpayRate)
}

// MixLabel renders a behaviour mix deterministically.
func MixLabel(mix map[Behavior]float64) string {
	var keys []string
	for b := range mix {
		keys = append(keys, string(b))
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "+"
		}
		out += fmt.Sprintf("%s:%.0f%%", k, mix[Behavior(k)]*100)
	}
	return out
}

// Run simulates the mechanism under the configured population.
func Run(cfg Config, mech market.Mechanism) Metrics {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	agents := makePopulation(cfg, rng)

	met := Metrics{
		Design:            mech.Name(),
		Mix:               MixLabel(cfg.Mix),
		Rounds:            cfg.Rounds,
		UtilityByBehavior: map[Behavior]float64{},
	}
	utilSum := map[Behavior]float64{}
	utilN := map[Behavior]int{}
	var maxWelfare float64
	overpay, sales := 0, 0

	for round := 0; round < cfg.Rounds; round++ {
		// Redraw valuations.
		for i := range agents {
			v := cfg.ValueMean + cfg.ValueStd*rng.NormFloat64()
			if v < 1 {
				v = 1
			}
			agents[i].value = v
		}
		bids := makeBids(cfg, agents, rng)
		out := mech.Run(bids, cfg.Supply)

		// Max achievable welfare this round: top-supply true values.
		vals := make([]float64, len(agents))
		for i, a := range agents {
			vals[i] = a.value
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		k := cfg.Supply
		if k == market.SupplyUnlimited || k > len(vals) {
			k = len(vals)
		}
		for i := 0; i < k; i++ {
			maxWelfare += vals[i]
		}

		winners := map[string]float64{}
		for _, s := range out.Sales {
			winners[s.Buyer] = s.Price
		}
		met.Revenue += out.Revenue
		met.Volume += len(out.Sales)
		for _, a := range agents {
			price, won := winners[a.name]
			var u float64
			if won {
				u = a.value - price
				met.Welfare += a.value
				sales++
				if price > a.value+1e-9 {
					overpay++
				}
			}
			utilSum[a.behavior] += u
			utilN[a.behavior]++
		}
	}
	for b, s := range utilSum {
		if utilN[b] > 0 {
			met.UtilityByBehavior[b] = s / float64(utilN[b])
		}
	}
	if maxWelfare > 0 {
		met.Efficiency = met.Welfare / maxWelfare
	}
	if sales > 0 {
		met.OverpayRate = float64(overpay) / float64(sales)
	}
	met.TruthfulPremium = met.UtilityByBehavior[Truthful] - met.UtilityByBehavior[Strategic]
	return met
}

func makePopulation(cfg Config, rng *rand.Rand) []agent {
	var total float64
	for _, f := range cfg.Mix {
		total += f
	}
	behaviors := AllBehaviors()
	var agents []agent
	i := 0
	for _, b := range behaviors {
		frac, ok := cfg.Mix[b]
		if !ok {
			continue
		}
		n := int(math.Round(frac / total * float64(cfg.NumBuyers)))
		for j := 0; j < n && len(agents) < cfg.NumBuyers; j++ {
			agents = append(agents, agent{name: fmt.Sprintf("%s-%d", b, i), behavior: b})
			i++
		}
	}
	// Round-off fill with truthful agents.
	for len(agents) < cfg.NumBuyers {
		agents = append(agents, agent{name: fmt.Sprintf("fill-%d", i), behavior: Truthful})
		i++
	}
	_ = rng
	return agents
}

func makeBids(cfg Config, agents []agent, rng *rand.Rand) []market.Bid {
	// Coalition members coordinate on a common low bid.
	var coalitionMean float64
	nCoal := 0
	for _, a := range agents {
		if a.behavior == Adversarial {
			coalitionMean += a.value
			nCoal++
		}
	}
	if nCoal > 0 {
		coalitionMean /= float64(nCoal)
	}
	coalitionBid := coalitionMean * cfg.CoalitionBid

	bids := make([]market.Bid, len(agents))
	for i, a := range agents {
		var offer float64
		switch a.behavior {
		case Truthful:
			offer = a.value
		case Strategic:
			offer = a.value * cfg.ShadeFactor
		case Adversarial:
			offer = coalitionBid
		case Ignorant:
			offer = a.value * (0.2 + 1.6*rng.Float64())
		case RiskLover:
			offer = a.value * 1.3
		case Faulty:
			switch rng.Intn(5) {
			case 0:
				offer = 0
			case 1:
				offer = a.value * 10
			default:
				offer = a.value
			}
		}
		bids[i] = market.Bid{Buyer: a.name, Offer: offer, True: a.value}
	}
	return bids
}

// CoalitionSweep measures revenue as the adversarial coalition grows —
// experiment E3. fracs are coalition fractions of the buyer population.
func CoalitionSweep(base Config, mech market.Mechanism, fracs []float64) []Metrics {
	out := make([]Metrics, 0, len(fracs))
	for _, f := range fracs {
		cfg := base
		cfg.Mix = map[Behavior]float64{Truthful: 1 - f, Adversarial: f}
		out = append(out, Run(cfg, mech))
	}
	return out
}
