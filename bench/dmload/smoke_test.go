package main

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/workloads"
)

// TestSmokeEveryWorkload runs both passes of every workload for one second
// against a real gateway subprocess and checks the report against
// BENCHMARK.json: every listed metric exactly once with its unit and a finite
// value, nothing unlisted, no failed request, verify passing. It asserts no
// timing.
func TestSmokeEveryWorkload(t *testing.T) {
	// The benchmark runs from the repository root: it builds ./cmd/dmgateway
	// and reads BENCHMARK.json there.
	t.Chdir(filepath.Join("..", ".."))
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range man.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range man.PerLayer {
		if _, dup := units[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	scratch := t.TempDir() // removed, WAL dirs included, however the test ends
	bin, err := buildGateway(context.Background(), scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads.Table {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			// No timing assertions: on a loaded machine a request may settle
			// slowly, and the latency limit must not fail the smoke test.
			spec.Limit = 10 * time.Second
			e := &env{bin: bin, work: scratch, out: t.TempDir(), log: io.Discard}
			res, err := runWorkload(e, spec, 1, 1, "both")
			if err != nil {
				t.Fatal(err) // every pass kills its gateways on the way out, error or not
			}
			if !res.Correct {
				t.Error("verify failed")
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for name, unit := range units {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s is listed in BENCHMARK.json but was not reported", name)
				case m.Unit != unit:
					t.Errorf("%s reported in %q, BENCHMARK.json says %q", name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("%s was reported but BENCHMARK.json does not list it", name)
				}
			}
			for _, m := range man.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			for _, f := range []string{spec.Name + ".json", "trace-" + spec.Name + ".jsonl"} {
				if st, err := os.Stat(filepath.Join(e.out, f)); err != nil || st.Size() == 0 {
					t.Errorf("output %s missing or empty (%v)", f, err)
				}
			}
		})
	}
}
