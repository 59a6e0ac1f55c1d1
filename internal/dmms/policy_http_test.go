package dmms

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestHTTPAdmission429 covers the wire surface of admission control: a
// quota-exhausted participant gets 429 Too Many Requests with a Retry-After
// header (surfaced client-side as *OverloadedError), the priority header
// sticks to the ticket, and an epoch refill reopens intake.
func TestHTTPAdmission429(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{
		Admission: engine.AdmissionConfig{QuotaPerEpoch: 1, QuotaBurst: 1}})
	defer done()

	if _, err := c.RegisterAsync("b1", 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}

	req := RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	}
	tk, err := c.SubmitRequestAsyncPriority(req, "high")
	if err != nil {
		t.Fatalf("first request should be admitted: %v", err)
	}
	ticket, err := c.Ticket(tk)
	if err != nil {
		t.Fatal(err)
	}
	if ticket.Priority != engine.PriorityHigh {
		t.Fatalf("priority header lost: ticket carries class %d", ticket.Priority)
	}

	_, err = c.SubmitRequestAsync(req)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadedError from a 429, got %v", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint too small: %v", oe.RetryAfter)
	}

	// The epoch applies the admitted request and refills one token.
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitRequestAsync(req); err != nil {
		t.Fatalf("post-refill request should be admitted: %v", err)
	}
}

// TestHTTPPriorityBodyField: without the header, the JSON body's priority
// field decides the class; junk labels are a 400, not a silent normal.
func TestHTTPPriorityBodyField(t *testing.T) {
	_, eng, c, done := asyncFixture(t, engine.Config{})
	defer done()
	if _, err := c.RegisterAsync("b1", 2000); err != nil {
		t.Fatal(err)
	}
	req := RequestReq{
		Buyer:    "b1",
		Columns:  []string{"x", "y"},
		Curve:    []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
		Priority: "low",
	}
	tk, err := c.SubmitRequestAsync(req)
	if err != nil {
		t.Fatal(err)
	}
	ticket, ok := eng.Ticket(tk)
	if !ok || ticket.Priority != engine.PriorityLow {
		t.Fatalf("body priority ignored: %+v", ticket)
	}
	req.Priority = "asap!!"
	if _, err := c.SubmitRequestAsync(req); err == nil {
		t.Fatal("junk priority label should be rejected")
	}
}
