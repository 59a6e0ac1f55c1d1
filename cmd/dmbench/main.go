// Command dmbench regenerates every experiment table (E1–E14) in one run
// and prints them. Each experiment is one function in internal/experiments,
// whose doc comment names the paper section or claim it reproduces.
//
// Usage:
//
//	dmbench            # run everything
//	dmbench -only E5   # run one experiment (E1..E14)
//	dmbench -seed 7    # change the deterministic seed
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E14)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	rounds := flag.Int("rounds", 100, "simulation rounds for E2/E3")
	flag.Parse()

	type runner struct {
		id string
		fn func() (experiments.Table, error)
	}
	runners := []runner{
		{"E1", func() (experiments.Table, error) { return experiments.E1EndToEnd(600, *seed) }},
		{"E2", func() (experiments.Table, error) { return experiments.E2SimDesigns(*rounds, *seed), nil }},
		{"E3", func() (experiments.Table, error) { return experiments.E3Coalitions(*rounds, *seed), nil }},
		{"E4", func() (experiments.Table, error) { return experiments.E4MechanismScaling(*seed), nil }},
		{"E5", func() (experiments.Table, error) { return experiments.E5Shapley(*seed), nil }},
		{"E6", func() (experiments.Table, error) { return experiments.E6MashupBuilder(*seed), nil }},
		{"E7", func() (experiments.Table, error) { return experiments.E7PrivacyValue(*seed), nil }},
		{"E8", func() (experiments.Table, error) { return experiments.E8ThinMarket(*seed), nil }},
		{"E9", func() (experiments.Table, error) { return experiments.E9Arbitrage(*seed) }},
		{"E10", func() (experiments.Table, error) { return experiments.E10Negotiation(*seed) }},
		{"E11", func() (experiments.Table, error) { return experiments.E11ExPostAudits(*rounds, *seed), nil }},
		{"E12", func() (experiments.Table, error) { return experiments.E12DynamicArrival(*seed), nil }},
		{"E13", func() (experiments.Table, error) { return experiments.E13EngineThroughput(8, 8, 4, *seed) }},
		{"E14", func() (experiments.Table, error) { return experiments.E14WALDurability(6, *seed) }},
	}
	ran := 0
	for _, r := range runners {
		if *only != "" && r.id != *only {
			continue
		}
		t, err := r.fn()
		if err != nil {
			log.Fatalf("%s failed: %v", r.id, err)
		}
		fmt.Println(t)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
