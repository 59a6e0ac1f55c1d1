// Command barterhealth demonstrates a barter market (paper §3.3): hospitals
// exchange medical data "to improve patient care and treatments", with data
// credits as the incentive rather than money. It combines the platform's
// governance extensions:
//
//   - contextual integrity (§4.4): PHI flows for healthcare and research
//     purposes only — marketing requests are denied by policy;
//   - a patient data trust (§4.5): patients pool their records and share the
//     trust's earnings;
//   - data insurance (§3.4): the selling hospital insures its release
//     against de-anonymization, priced from its privacy spend;
//   - humans-in-the-loop (§5.4): a diagnosis-code mapping the DoD engine
//     cannot infer is crowdsourced for a bounty.
package main

import (
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dod"
	"repro/internal/insurance"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/policy"
	"repro/internal/relation"
	"repro/internal/trust"
)

func main() {
	// Barter design: credits, welfare goal, generous allocation.
	design := &market.Design{
		Label: "hospital-barter", Goal: market.GoalWelfare, Type: market.TypeBarter,
		Elicitation: market.ElicitUpfront,
		Mechanism:   market.PostedPrice{P: 25}, // 25 data credits per exchange
		Allocator:   market.ShapleyExact{},
	}
	p, err := core.NewPlatform(core.Options{CustomDesign: design, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}

	// Contextual integrity: PHI norms on every shared dataset.
	eng := policy.NewEngine(policy.Deny)
	for _, ds := range []string{"patients-pool", "stmary/outcomes"} {
		for _, n := range policy.HealthcareDefaults(ds) {
			if err := eng.AddNorm(n); err != nil {
				log.Fatal(err)
			}
		}
	}
	p.Arbiter.Policy = eng

	// A patient data trust pools individual records before they enter the
	// market: individuals are worthless alone, valuable together (§4.5).
	patientTrust, err := trust.New("patients-pool", relation.NewSchema(
		relation.Col("patient_id", relation.KindInt),
		relation.Col("icd_code", relation.KindString),
		relation.Col("recovery_days", relation.KindFloat),
	), 3)
	if err != nil {
		log.Fatal(err)
	}
	for m := 0; m < 5; m++ {
		member := fmt.Sprintf("patient%d", m)
		var rows [][]relation.Value
		for i := 0; i < 40; i++ {
			rows = append(rows, []relation.Value{
				relation.Int(int64(m*1000 + i)),
				relation.String_(fmt.Sprintf("ICD%02d", (m*7+i)%20)),
				relation.Float(float64(5 + (m+i)%30)),
			})
		}
		if err := patientTrust.Join(member, rows); err != nil {
			log.Fatal(err)
		}
	}
	pool, err := patientTrust.Pool()
	if err != nil {
		log.Fatal(err)
	}
	trustSeller := p.Seller("patients-trust")
	if err := trustSeller.Share("patients-pool", pool, license.Terms{Kind: license.NoResale}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patient trust pooled %d rows from %d members (quorum 3) and listed them no-resale\n",
		pool.NumRows(), len(patientTrust.Members()))

	// St. Mary hospital shares outcome data keyed by a *legacy* diagnosis
	// code the platform cannot map automatically.
	outcomes := relation.New("outcomes", relation.NewSchema(
		relation.Col("legacy_code", relation.KindString),
		relation.Col("treatment", relation.KindString),
		relation.Col("success_rate", relation.KindFloat),
	))
	for i := 0; i < 20; i++ {
		outcomes.MustAppend(
			relation.String_(fmt.Sprintf("LC-%02d", i)),
			relation.String_(fmt.Sprintf("protocol%d", i%6)),
			relation.Float(0.5+float64(i%5)/10),
		)
	}
	stmary := p.Seller("stmary")
	if err := stmary.Share(catalog.DatasetID("stmary/outcomes"), outcomes, license.Terms{Kind: license.NoResale}); err != nil {
		log.Fatal(err)
	}

	// The selling hospital insures its PHI release (§3.4): premium priced
	// from its privacy posture.
	ins, err := insurance.New(p.Arbiter.Ledger, 1.25)
	if err != nil {
		log.Fatal(err)
	}
	_ = p.Arbiter.Ledger.Deposit("stmary", ledger.FromFloat(100))
	pol, err := ins.Underwrite("stmary/outcomes", "stmary",
		insurance.RiskProfile{Epsilon: 1.0, Records: outcomes.NumRows()}, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stmary insured its release: premium %.2f credits for %.0f coverage (risk %.3f)\n",
		pol.Premium, pol.Coverage, pol.Risk)

	// General hospital wants outcomes joined to patient codes — but the
	// join needs legacy_code -> icd_code, which only a human knows.
	general := p.Buyer("general-hospital", 200)
	if _, err := general.Need("icd_code", "recovery_days", "success_rate").
		ForPurpose(string(policy.PurposeHealthcare)).
		ForCoverage(100).
		PayingAt(0.9, 30).
		Submit(); err != nil {
		log.Fatal(err)
	}
	res, err := p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nround 1: %d transactions (success_rate needs the legacy-code mapping)\n", len(res.Transactions))

	// Humans in the loop (§5.4): post the mapping task with a bounty.
	_ = p.Arbiter.Ledger.Deposit("arbiter", ledger.FromFloat(50))
	board := crowd.NewBoard(p.Arbiter.Ledger, "arbiter")
	for _, w := range []string{"coder1", "coder2", "coder3"} {
		_ = p.Arbiter.Ledger.Open(w, 0)
	}
	task, err := board.Post(crowd.KindMapping, "stmary/outcomes", "legacy_code", "icd_code", 15, 3)
	if err != nil {
		log.Fatal(err)
	}
	mapping := relation.New("m", relation.NewSchema(
		relation.Col("legacy_code", relation.KindString),
		relation.Col("icd_code", relation.KindString),
	))
	for i := 0; i < 20; i++ {
		mapping.MustAppend(relation.String_(fmt.Sprintf("LC-%02d", i)), relation.String_(fmt.Sprintf("ICD%02d", i)))
	}
	_, _ = board.Submit(task.ID, crowd.Answer{Worker: "coder1", Table: mapping})
	_, _ = board.Submit(task.ID, crowd.Answer{Worker: "coder2", Table: mapping.Clone()})
	partial, _ := relation.Materialize(relation.NewLimit(relation.NewScan(mapping), 5))
	done, err := board.Submit(task.ID, crowd.Answer{Worker: "coder3", Table: partial})
	if err != nil || !done {
		log.Fatalf("crowd adjudication failed: %v", err)
	}
	accepted, _ := board.Accepted(task.ID)
	fmt.Printf("crowd task %s adjudicated: %s's mapping accepted, bounty paid (balance %.2f credits)\n",
		task.ID, accepted.Worker, p.Arbiter.Ledger.Balance(accepted.Worker).Float())

	// Feed the human-contributed mapping into the DoD engine and re-match.
	tr, err := dod.MappingFromRelation("legacy->icd", accepted.Table, "legacy_code", "icd_code")
	if err != nil {
		log.Fatal(err)
	}
	p.Arbiter.DoD().RegisterTransform("stmary/outcomes", "legacy_code", "icd_code", tr)
	res, err = p.MatchRound()
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Transactions) == 0 {
		log.Fatalf("round 2 failed: %v", res.Unsatisfied)
	}
	tx := res.Transactions[0]
	fmt.Printf("\nround 2: %s delivered (%d rows from %v) for %.0f credits\n",
		tx.Mashup.Name, tx.Mashup.NumRows(), tx.Datasets, tx.Price)

	// The trust's cut flows to patients.
	trustCut := tx.SellerCuts["patients-trust"]
	shares := patientTrust.SplitByRows(trustCut)
	fmt.Printf("patient trust earned %.2f credits; per-member shares: %v\n", trustCut, shares)

	// A marketing data broker is refused by policy.
	broker := p.Buyer("adbroker", 500)
	if _, err := broker.Need("icd_code", "recovery_days").
		ForPurpose(string(policy.PurposeMarketing)).
		ForCoverage(10).PayingAt(0.5, 100).Submit(); err != nil {
		log.Fatal(err)
	}
	res, _ = p.MatchRound()
	denied := 0
	for _, d := range eng.Decisions() {
		if !d.Allowed {
			denied++
		}
	}
	fmt.Printf("\nadbroker (marketing purpose): %d transactions; policy denied %d flows in total\n",
		len(res.Transactions), denied)

	// A de-anonymization event triggers the insurance claim (§7.1).
	paid, err := ins.Claim(pol.ID, 120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("de-anonymization claim paid %.2f of 120 loss (pool-limited)\n", paid)
	fmt.Println("\n" + p.Summary())
}
