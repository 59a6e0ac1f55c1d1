// Command dmload is the repository's benchmark: it builds cmd/dmgateway,
// boots it as a subprocess per workload, drives it over HTTP with an
// open-loop load from this one process, checks the outputs and prints every
// metric BENCHMARK.json names. Run it from the repository root:
//
//	go run ./bench/dmload                       # BENCHMARK.json's workloads, both passes
//	go run ./bench/dmload --workload cover --seed 7 --seconds 20 --trace 0
//	go run ./bench/dmload -aa                   # two sets of runs must agree within the bounds
//	go run ./bench/dmload -pairs 10 -against /path/to/other/dmgateway
//
// See bench/README.md for what the workloads and metrics mean.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/bench/probe"
	"repro/bench/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmload:", err)
		os.Exit(1)
	}
}

// manifest is BENCHMARK.json: the contract the printed metrics must match,
// and the source of each end-to-end metric's regression bound.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run dmload from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	aa       bool
	pairs    int
	against  string
	rate     float64
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "a workload of bench/workloads by name, or all = the ones BENCHMARK.json lists")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
	flag.StringVar(&o.trace, "trace", "both", "0 = end-to-end pass, 1 = traced per-layer pass, both")
	flag.BoolVar(&o.aa, "aa", false, "run every workload in two interleaved sets of 3 and fail if a metric's two medians differ by more than its bound")
	flag.IntVar(&o.pairs, "pairs", 0, "run this many passes per workload (per side with -against, alternating which goes first) and print median and quartiles")
	flag.StringVar(&o.against, "against", "", "a second dmgateway binary to compare with, for -pairs")
	flag.Float64Var(&o.rate, "rate", 0, "calibration only: override the workload's steady rate (results are not comparable)")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", o.trace)
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(man.RunSeconds)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range man.Workloads {
			names = append(names, w.Name)
		}
	}
	var specs []workloads.Spec
	for _, name := range names {
		spec, ok := workloads.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if o.rate > 0 {
			spec.Rate = o.rate
		}
		specs = append(specs, spec)
	}

	work, err := workDir()
	if err != nil {
		return err
	}
	bin, err := buildGateway(context.Background(), work)
	if err != nil {
		return err
	}
	e := &env{bin: bin, work: work, out: outDir, log: os.Stdout}

	switch {
	case o.aa:
		return runAA(e, man, specs, o)
	case o.pairs > 0:
		return runPairs(e, man, specs, o)
	}
	var last *result
	for _, spec := range specs {
		res, err := runWorkload(e, spec, o.seed, o.seconds, o.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		report(e, man, spec.Name, res)
		if !res.Correct {
			return fmt.Errorf("%s: verify failed", spec.Name)
		}
		last = res
	}
	if len(specs) == 1 {
		// The driver's contract: the last stdout line is the run's result.
		out, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	return nil
}

// runWorkload runs the requested pass(es) of one workload and merges their
// metrics. Outputs land in bench/out.
func runWorkload(e *env, spec workloads.Spec, seed int64, seconds float64, trace string) (*result, error) {
	name := spec.Name
	e.logf("== %s  seed %d  %g s", name, seed, seconds)
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	merged := &result{Correct: true, Metrics: map[string]metric{}}
	merge := func(r *result) {
		merged.Correct = merged.Correct && r.Correct
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		for k, v := range r.Metrics {
			merged.Metrics[k] = v
		}
	}
	if trace != "1" {
		sc, err := workloads.Generate(spec, seed, seconds)
		if err != nil {
			return nil, err
		}
		r, err := untracedPass(e, sc, seconds)
		if err != nil {
			return nil, err
		}
		merge(r)
	}
	if trace != "0" {
		// Two steady phases (telemetry off, then on) share the run's seconds.
		sc, err := workloads.Generate(spec, seed, seconds/2)
		if err != nil {
			return nil, err
		}
		rec := &probe.Recorder{}
		r, err := tracedPass(e, sc, rec)
		if err != nil {
			return nil, err
		}
		merge(r)
		if err := rec.WriteJSONL(filepath.Join(e.out, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
	}
	for n, m := range merged.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v: the run produced no samples for it", n, m.Value)
		}
	}
	raw, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return nil, err
	}
	return merged, os.WriteFile(filepath.Join(e.out, name+".json"), append(raw, '\n'), 0o644)
}

// outDir receives the command's run outputs; it is git-ignored.
const outDir = "bench/out"

// report prints every metric by name with its unit, in BENCHMARK.json order.
func report(e *env, man *manifest, name string, res *result) {
	e.logf("  %s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	for _, m := range man.EndToEnd {
		if v, ok := res.Metrics[m.Name]; ok {
			e.logf("  %-38s %14.4f %s", m.Name, v.Value, v.Unit)
		}
	}
	for _, m := range man.PerLayer {
		if v, ok := res.Metrics[m.Name]; ok {
			e.logf("  %-38s %14.4f %s", m.Name, v.Value, v.Unit)
		}
	}
}
