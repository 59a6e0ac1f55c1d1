package engine

import (
	"testing"
	"time"

	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// blockingTransform returns a user transform that parks every call on gate —
// a build that never panics, never errors, and never returns until the gate
// closes: the stalled-build failure mode Config.BuildDeadline exists for.
func blockingTransform(gate chan struct{}) *dod.Transform {
	return &dod.Transform{Name: "stall", Kind: relation.KindFloat,
		Fn: func(relation.Value) relation.Value { <-gate; return relation.Float(1) }}
}

// TestBuildDeadlineFreesEpoch is the stalled-build regression: a transform
// that blocks forever must not stall an epoch past Config.BuildDeadline. The
// wedged want group resolves to a deadline-failed build, the healthy request
// in the same round still settles, the deadline is counted, and — once the
// stall clears — the abandoned group re-enters a later round and matches
// (abandoned results are never cached, so nothing has to be invalidated).
// The workers=0 subtest is the inline build path, the only one the engine
// has.
func TestBuildDeadlineFreesEpoch(t *testing.T) {
	t.Run("workers=0", func(t *testing.T) {
		gate := make(chan struct{})
		t.Cleanup(func() {
			select {
			case <-gate:
			default:
				close(gate)
			}
		})
		p, e := newTestEngine(t, Config{BuildDeadline: 150 * time.Millisecond})
		defer e.Stop()
		p.Arbiter.DoD().RegisterTransform("s1/d", "b", "z", blockingTransform(gate))

		mustTicket(e.SubmitRegister("b1", 100000))
		mustTicket(e.SubmitShare("s1", "s1/d", testRelation("s1/d", 20),
			wtp.DatasetMeta{Dataset: "s1/d", HasProvenance: true}, license.Terms{Kind: license.Open}))
		e.TriggerEpoch()

		stalledTk := mustTicket(e.SubmitRequest(
			dod.Want{Columns: []string{"a", "z"}},
			&wtp.Function{Buyer: "b1",
				Task:  wtp.CoverageTask{Columns: []string{"a", "z"}, WantRows: 1},
				Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 100}}}))
		healthyTk := mustTicket(e.SubmitRequest(coverageRequest("b1", 150)))

		// The epoch containing the wedged build must complete in bounded
		// time: well under the forever the transform would take.
		start := time.Now()
		e.TriggerEpoch()
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("epoch with a stalled build took %v", took)
		}
		waitTerminal(t, e, []string{healthyTk}, 2*time.Second)
		if tk, _ := e.Ticket(healthyTk); tk.Status != TicketDone {
			t.Fatalf("healthy ticket status = %v, want done", tk.Status)
		}
		if tk, _ := e.Ticket(stalledTk); tk.Status != TicketApplied {
			t.Fatalf("stalled ticket status = %v, want still applied (open)", tk.Status)
		}
		if st := e.Stats(); st.BuildDeadlineExceeded < 1 {
			t.Fatalf("Stats().BuildDeadlineExceeded = %d, want >= 1", st.BuildDeadlineExceeded)
		}

		// Clear the stall: the deadline-failed group re-enters the next
		// round and — because the abandoned result was never cached — a
		// fresh build now succeeds and the request settles. The first
		// retry can still collide with the draining stuck goroutine's
		// singleflight entry, so poll a few rounds.
		close(gate)
		deadline := time.Now().Add(5 * time.Second)
		for {
			e.TriggerEpoch()
			if tk, _ := e.Ticket(stalledTk); tk.Status == TicketDone {
				break
			}
			if time.Now().After(deadline) {
				tk, _ := e.Ticket(stalledTk)
				t.Fatalf("deadline-failed group never re-entered and matched: %+v", tk)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st := e.Stats(); st.Matched != 2 {
			t.Fatalf("matched %d requests, want 2", st.Matched)
		}
	})
}

// TestStalledBuildDoesNotHangStop is the shutdown-wedge regression:
// Engine.Stop (which runs a final flush epoch, rebuilding the stalled group)
// must return promptly while a build is still parked inside user code that
// never returns. Only the abandoned goroutine stays pinned — never the epoch
// runner or Stop itself.
func TestStalledBuildDoesNotHangStop(t *testing.T) {
	gate := make(chan struct{})
	p, e := newTestEngine(t, Config{BuildDeadline: 100 * time.Millisecond})
	p.Arbiter.DoD().RegisterTransform("s1/d", "b", "z", blockingTransform(gate))

	mustTicket(e.SubmitRegister("b1", 100000))
	mustTicket(e.SubmitShare("s1", "s1/d", testRelation("s1/d", 20),
		wtp.DatasetMeta{Dataset: "s1/d", HasProvenance: true}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()
	mustTicket(e.SubmitRequest(
		dod.Want{Columns: []string{"a", "z"}},
		&wtp.Function{Buyer: "b1",
			Task:  wtp.CoverageTask{Columns: []string{"a", "z"}, WantRows: 1},
			Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 100}}}))
	e.TriggerEpoch() // leaves the stalled group open

	done := make(chan struct{})
	go func() { e.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Engine.Stop wedged behind a stalled build")
	}
	close(gate) // release the abandoned goroutine before the test exits
}
