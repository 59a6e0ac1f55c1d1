package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// E13EngineThroughput measures the concurrent market engine (internal/
// engine) under parallel load: `sellers`+`buyers` goroutines submit shares
// and WTP-task requests into the intake queue each round, one epoch clears
// the batch, and the table reports per-epoch applied/matched counts plus
// sustained matches/sec and the conservation verdicts. This is the service
// workload the synchronous core.Platform could not express: many writers,
// one batched MatchRound per epoch.
func E13EngineThroughput(sellers, buyers, epochs int, seed int64) (Table, error) {
	t := Table{ID: "E13", Title: "concurrent engine: one intake queue, epoch-batched matching"}
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Seed: seed})
	if err != nil {
		return t, err
	}
	eng := engine.New(p, engine.Config{})
	defer eng.Stop()

	var initial float64
	for b := 0; b < buyers; b++ {
		funds := 1000.0 * float64(epochs)
		eng.SubmitRegister(fmt.Sprintf("buyer%02d", b), funds)
		initial += funds
	}
	eng.TriggerEpoch()

	mkRel := func(name string, rows int) *relation.Relation {
		r := relation.New(name, relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Int(int64(i)+seed), relation.Float(float64(i)))
		}
		return r
	}

	start := time.Now()
	for ep := 0; ep < epochs; ep++ {
		var wg sync.WaitGroup
		for s := 0; s < sellers; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				name := fmt.Sprintf("seller%02d", s)
				id := catalog.DatasetID(fmt.Sprintf("%s/e%d", name, ep))
				eng.SubmitShare(name, id, mkRel(string(id), 50),
					wtp.DatasetMeta{Dataset: string(id), HasProvenance: true},
					license.Terms{Kind: license.Open})
			}(s)
		}
		for b := 0; b < buyers; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				eng.SubmitRequest(
					dod.Want{Columns: []string{"a", "b"}},
					&wtp.Function{
						Buyer: fmt.Sprintf("buyer%02d", b),
						Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
						Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 200}},
					})
			}(b)
		}
		wg.Wait()
		before := eng.Stats().Matched
		eng.TriggerEpoch()
		after := eng.Stats()
		t.Rows = append(t.Rows, fmt.Sprintf(
			"epoch=%d submitters=%d applied=%d matched_this_epoch=%d open=%d",
			ep+1, sellers+buyers, sellers+buyers, after.Matched-before, after.OpenRequests))
	}
	elapsed := time.Since(start)
	eng.Stop()

	st := eng.Stats()
	mps := float64(st.Matched) / elapsed.Seconds()
	supplyOK := p.Arbiter.Ledger.TotalSupply() == ledger.FromFloat(initial)
	t.Rows = append(t.Rows, fmt.Sprintf(
		"total: epochs=%d submitted=%d matched=%d matches/sec=%.0f events=%d",
		st.Epochs, st.Submitted, st.Matched, mps, st.Events))
	t.Rows = append(t.Rows, fmt.Sprintf(
		"conservation: settlements=%d credits==debits=%v money_supply_intact=%v audit_chain_intact=%v",
		eng.Settlements().Count(), eng.Settlements().Conserved(), supplyOK,
		p.Arbiter.Ledger.VerifyChain() == -1))
	return t, nil
}
