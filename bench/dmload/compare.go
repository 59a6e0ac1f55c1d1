package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/bench/workloads"
)

// worse is by how much b is worse than a, as a share of a, for a metric
// whose better direction is given ("lower" or "higher").
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// aaRuns is how many runs each of the two A/A sets holds.
const aaRuns = 3

// runAA measures every workload's end-to-end pass in two interleaved sets of
// aaRuns runs of the same binary (the sets share their seeds) and fails if
// either set's median is worse than the other's by more than a metric's
// bound: the benchmark must agree with itself before it may judge a change.
func runAA(e *env, man *manifest, specs []workloads.Spec, o options) error {
	var bad []string
	for _, spec := range specs {
		name := spec.Name
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for run := 0; run < aaRuns; run++ {
			for i := range sets {
				r, err := runWorkload(e, spec, o.seed+int64(run), o.seconds, "0")
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s: verify failed", name)
				}
				for m, v := range r.Metrics {
					sets[i][m] = append(sets[i][m], v.Value)
				}
			}
		}
		for _, m := range man.EndToEnd {
			a, b := summarize(sets[0][m.Name]).Median, summarize(sets[1][m.Name]).Median
			gap := math.Max(worse(a, b, m.Better), worse(b, a, m.Better))
			verdict := "ok"
			if gap > m.Bound {
				verdict = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: %.4f vs %.4f", name, m.Name, a, b))
			}
			e.logf("  %-12s %-22s %12.4f %12.4f  gap %5.1f%%  bound %4.0f%%  %s",
				name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("A/A disagreement beyond the bounds: %v", bad)
	}
	return nil
}

// quartiles are the median and the first and third quartiles of a sample
// (the "exclusive" method, as Python's statistics.quantiles(n=4) computes).
type quartiles struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) quartiles {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := q*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, len(s)-2))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), Values: values}
}

// runPairs runs -pairs passes of every workload per side and prints each
// metric's median and quartiles. With -against the second side is another
// gateway binary and the sides alternate which runs first, so drift in the
// machine hits both alike. The summary is written to bench/out/pairs.json.
func runPairs(e *env, man *manifest, specs []workloads.Spec, o options) error {
	sides := []*env{e}
	labels := []string{"this"}
	if o.against != "" {
		abs, err := filepath.Abs(o.against)
		if err != nil {
			return err
		}
		sides = append(sides, &env{bin: abs, work: e.work, out: e.out, log: e.log})
		labels = append(labels, "against")
	}
	// summary[workload][side][metric]
	summary := map[string]map[string]map[string]quartiles{}
	var order []string // report order: BENCHMARK.json's
	for _, m := range man.EndToEnd {
		order = append(order, m.Name)
	}
	for _, m := range man.PerLayer {
		order = append(order, m.Name)
	}
	for _, spec := range specs {
		name := spec.Name
		values := make([]map[string][]float64, len(sides))
		for i := range values {
			values[i] = map[string][]float64{}
		}
		for pair := 0; pair < o.pairs; pair++ {
			for k := range sides {
				side := (k + pair) % len(sides) // alternate who goes first
				r, err := runWorkload(sides[side], spec, o.seed+int64(pair), o.seconds, o.trace)
				if err != nil {
					return fmt.Errorf("%s (%s): %w", name, labels[side], err)
				}
				if !r.Correct {
					return fmt.Errorf("%s (%s): verify failed", name, labels[side])
				}
				for m, v := range r.Metrics {
					values[side][m] = append(values[side][m], v.Value)
				}
			}
		}
		summary[name] = map[string]map[string]quartiles{}
		for side, label := range labels {
			summary[name][label] = map[string]quartiles{}
			for m, vs := range values[side] {
				summary[name][label][m] = summarize(vs)
			}
		}
		for _, m := range order {
			for _, label := range labels {
				q, ok := summary[name][label][m]
				if !ok {
					continue
				}
				spread := 0.0
				if q.Median != 0 {
					spread = 100 * (q.Q3 - q.Q1) / math.Abs(q.Median)
				}
				e.logf("  %-12s %-8s %-38s median %14.4f  q1 %14.4f  q3 %14.4f  iqr %5.1f%%",
					name, label, m, q.Median, q.Q1, q.Q3, spread)
			}
		}
	}
	raw, err := json.MarshalIndent(map[string]any{"pairs": o.pairs, "seconds": o.seconds, "first_seed": o.seed, "workloads": summary}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.out, "pairs.json"), append(raw, '\n'), 0o644)
}
