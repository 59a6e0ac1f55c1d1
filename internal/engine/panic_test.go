package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// TestBuilderPanicIsolation is the regression test for panic-isolated builds:
// a user-supplied transform that panics mid-materialize must fail only its
// own want group. The engine keeps matching healthy requests in the same and
// later epochs, the panic is counted, and dod_worker_panics_total shows up on
// the metrics registry. The workers=0 subtest is the inline build path,
// the only one the engine has.
func TestBuilderPanicIsolation(t *testing.T) {
	t.Run("workers=0", func(t *testing.T) {
		reg := obs.NewRegistry()
		p, e := newTestEngine(t, Config{Metrics: reg})
		defer e.Stop()

		// Register the bomb before the dataset exists: RegisterTransform
		// cannot materialize the derived column yet, so the transform only
		// fires later — per row, inside the beam search's materialize step
		// of whichever build wants column z.
		bomb := &dod.Transform{Name: "bomb", Kind: relation.KindFloat,
			Fn: func(relation.Value) relation.Value { panic("transform bomb") }}
		p.Arbiter.DoD().RegisterTransform("s1/d", "b", "z", bomb)

		mustTicket(e.SubmitRegister("b1", 100000))
		mustTicket(e.SubmitShare("s1", "s1/d", testRelation("s1/d", 20),
			wtp.DatasetMeta{Dataset: "s1/d", HasProvenance: true}, license.Terms{Kind: license.Open}))
		e.TriggerEpoch()

		poisonTk := mustTicket(e.SubmitRequest(
			dod.Want{Columns: []string{"a", "z"}},
			&wtp.Function{Buyer: "b1",
				Task:  wtp.CoverageTask{Columns: []string{"a", "z"}, WantRows: 1},
				Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 100}}}))
		healthyWant, healthyFn := coverageRequest("b1", 150)
		healthyTk := mustTicket(e.SubmitRequest(healthyWant, healthyFn))
		e.TriggerEpoch()
		waitTerminal(t, e, []string{healthyTk}, 2*time.Second)

		// The epoch survived the panic and still matched the healthy
		// request; the poisoned one failed its build and stays unmatched.
		if tk, _ := e.Ticket(healthyTk); tk.Status != TicketDone {
			t.Fatalf("healthy ticket status = %v, want done", tk.Status)
		}
		if tk, _ := e.Ticket(poisonTk); tk.Status == TicketDone {
			t.Fatal("poisoned request matched despite its build panicking")
		}
		if got := p.DoDCacheStats().Panics; got < 1 {
			t.Fatalf("DoDCacheStats().Panics = %d, want >= 1", got)
		}

		// The round keeps serving: a later epoch matches another healthy
		// request — recovery is an in-place restart.
		tk2 := mustTicket(e.SubmitRequest(coverageRequest("b1", 150)))
		e.TriggerEpoch()
		waitTerminal(t, e, []string{tk2}, 2*time.Second)
		if st := e.Stats(); st.Matched != 2 {
			t.Fatalf("matched %d requests, want 2", st.Matched)
		}

		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		if !strings.Contains(text, "dod_worker_panics_total") {
			t.Fatal("dod_worker_panics_total missing from exposition")
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "dod_worker_panics_total ") {
				if strings.TrimPrefix(line, "dod_worker_panics_total ") == "0" {
					t.Fatalf("dod_worker_panics_total = 0 after a panicking build: %q", line)
				}
			}
		}
	})
}
