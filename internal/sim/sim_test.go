package sim

import (
	"testing"

	"repro/internal/market"
)

func baseCfg() Config {
	return Config{Rounds: 60, NumBuyers: 30, ValueMean: 100, ValueStd: 25, Seed: 42}
}

func TestRunTruthfulVickrey(t *testing.T) {
	cfg := baseCfg()
	cfg.Supply = 1
	m := Run(cfg, market.SecondPrice{})
	if m.Volume != cfg.Rounds {
		t.Errorf("volume = %d, want one sale per round", m.Volume)
	}
	if m.Efficiency < 0.99 {
		t.Errorf("all-truthful vickrey must be ~fully efficient, got %v", m.Efficiency)
	}
	if m.OverpayRate != 0 {
		t.Errorf("truthful vickrey never overpays, got %v", m.OverpayRate)
	}
	if m.Revenue <= 0 || m.Welfare <= 0 {
		t.Error("revenue/welfare must be positive")
	}
}

func TestStrategicShadingLosesUnderVickrey(t *testing.T) {
	cfg := baseCfg()
	cfg.Supply = 1
	cfg.Mix = map[Behavior]float64{Truthful: 0.5, Strategic: 0.5}
	m := Run(cfg, market.SecondPrice{})
	if m.TruthfulPremium <= 0 {
		t.Errorf("vickrey is incentive compatible: truthful premium = %v", m.TruthfulPremium)
	}
}

func TestRiskLoverOverpaysUnderGSP(t *testing.T) {
	cfg := baseCfg()
	cfg.Supply = 2
	cfg.Mix = map[Behavior]float64{Truthful: 0.5, RiskLover: 0.5}
	m := Run(cfg, GSPWrapper{})
	if m.OverpayRate == 0 {
		t.Error("risk lovers bidding 1.3x under GSP must sometimes pay above value")
	}
	if m.UtilityByBehavior[RiskLover] >= m.UtilityByBehavior[Truthful] {
		t.Errorf("risk lover utility %v must trail truthful %v",
			m.UtilityByBehavior[RiskLover], m.UtilityByBehavior[Truthful])
	}
}

// GSPWrapper adapts market.GSP (struct with no config).
type GSPWrapper = market.GSP

func TestCoalitionSuppressesVickreyRevenue(t *testing.T) {
	cfg := baseCfg()
	cfg.Supply = 1
	res := CoalitionSweep(cfg, market.SecondPrice{}, []float64{0, 0.5})
	if len(res) != 2 {
		t.Fatal("sweep size")
	}
	if res[1].Revenue >= res[0].Revenue {
		t.Errorf("coalition at 50%% must cut revenue: %v -> %v", res[0].Revenue, res[1].Revenue)
	}
}

func TestPostedPriceImmuneToCoalition(t *testing.T) {
	cfg := baseCfg()
	// With a posted price, coordinated low bids only remove the coalition
	// from trade; price per sale is unchanged.
	res := CoalitionSweep(cfg, market.PostedPrice{P: 80}, []float64{0, 0.4})
	perSale0 := res[0].Revenue / float64(res[0].Volume)
	perSale1 := res[1].Revenue / float64(res[1].Volume)
	if perSale0 != perSale1 {
		t.Errorf("posted per-sale price must not move: %v vs %v", perSale0, perSale1)
	}
	if res[1].Volume >= res[0].Volume {
		t.Errorf("coalition abstains, volume should drop: %d -> %d", res[0].Volume, res[1].Volume)
	}
}

func TestCompareDesigns(t *testing.T) {
	cfg := baseCfg()
	mechs := []market.Mechanism{
		market.PostedPrice{P: 100},
		market.RSOP{Seed: 1},
	}
	res := []Metrics{Run(cfg, mechs[0]), Run(cfg, mechs[1])}
	// RSOP adapts to the value distribution; a posted price at the mean
	// loses roughly half the buyers. RSOP should move more volume.
	if res[1].Volume <= res[0].Volume {
		t.Errorf("rsop volume %d should exceed posted-at-mean %d", res[1].Volume, res[0].Volume)
	}
	for _, m := range res {
		if m.String() == "" {
			t.Error("metrics must render")
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseCfg()
	cfg.Mix = map[Behavior]float64{Truthful: 0.4, Ignorant: 0.3, Faulty: 0.3}
	a := Run(cfg, market.RSOP{Seed: 2})
	b := Run(cfg, market.RSOP{Seed: 2})
	if a.Revenue != b.Revenue || a.Volume != b.Volume {
		t.Error("same seed must reproduce exactly")
	}
}

func TestMixLabelStable(t *testing.T) {
	m1 := MixLabel(map[Behavior]float64{Truthful: 0.5, Strategic: 0.5})
	m2 := MixLabel(map[Behavior]float64{Strategic: 0.5, Truthful: 0.5})
	if m1 != m2 {
		t.Errorf("labels differ: %s vs %s", m1, m2)
	}
}

func TestPopulationFill(t *testing.T) {
	cfg := Config{NumBuyers: 10, Rounds: 1, Mix: map[Behavior]float64{Strategic: 0.33}}
	m := Run(cfg, market.PostedPrice{P: 1})
	// All 10 agents participate (strategic ~3, fill truthful 7).
	if m.Volume == 0 {
		t.Error("population must be filled and trade")
	}
}

func TestThinMarketMashupsRaiseTrade(t *testing.T) {
	cfg := ThinConfig{
		Universe: 30, Sellers: 12, AttrsPerSeller: 6,
		Buyers: 200, AttrsPerBuyer: 8, Seed: 7,
	}
	res := ThinSweep(cfg, []int{1, 2, 3, 4})
	for i := 1; i < len(res); i++ {
		if res[i].Rate() < res[i-1].Rate() {
			t.Errorf("rate must be monotone in MaxCombine: %v", res)
		}
	}
	if res[0].Rate() >= res[len(res)-1].Rate() {
		t.Errorf("mashups must raise trade: no-combine %.2f vs combine-4 %.2f",
			res[0].Rate(), res[len(res)-1].Rate())
	}
}

func TestThinMarketDegenerate(t *testing.T) {
	// A buyer needing nothing trades trivially; no sellers means no trade.
	none := ThinMarket(ThinConfig{Universe: 10, Sellers: 0, Buyers: 5, AttrsPerBuyer: 2, MaxCombine: 2, Seed: 1})
	if none.Satisfied != 0 {
		t.Error("no sellers, no trade")
	}
	if none.Rate() != 0 {
		t.Error("rate of zero satisfied is 0")
	}
	zero := ThinResult{}
	if zero.Rate() != 0 {
		t.Error("empty result rate is 0")
	}
}
