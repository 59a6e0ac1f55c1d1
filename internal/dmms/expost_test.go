package dmms

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
)

// TestAsyncExPostReportEndToEnd is the wire-level ex-post durability story:
// on a WAL-backed gateway the async path settles deliver -> report through
// the event log, a pending escrow survives a snapshot + restart intact, and
// the buyer's report settles against the restored escrow on the second
// server lifetime.
func TestAsyncExPostReportEndToEnd(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1, "expost-audited")

	// --- first server lifetime -------------------------------------------
	m, err := federation.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Shards()[0].Platform
	srv := httptest.NewServer(NewMarketServer(m))
	c := NewClient(srv.URL)

	if _, err := c.RegisterAsync("b1", 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open"); err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("first epoch: ran=%v err=%v", ran, err)
	}
	deliver := func(price float64) engine.Ticket {
		t.Helper()
		reqT, err := c.SubmitRequestAsync(RequestReq{
			Buyer:   "b1",
			Columns: []string{"x", "y"},
			Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: price}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		tk, err := c.WaitTicket(reqT, time.Second)
		if err != nil || tk.Status != engine.TicketDone || tk.TxID == "" {
			t.Fatalf("ex-post delivery did not settle: %+v err=%v", tk, err)
		}
		return tk
	}
	tx1 := deliver(300)

	// The async report settles the escrow through the event log.
	repT, err := c.ReportAsync(tx1.TxID, 250, 250)
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("report epoch: ran=%v err=%v", ran, err)
	}
	repTk, err := c.WaitTicket(repT, time.Second)
	if err != nil || repTk.Status != engine.TicketDone || repTk.Price <= 0 {
		t.Fatalf("async report did not settle: %+v err=%v", repTk, err)
	}
	if repTk.TxID != tx1.TxID || repTk.Participant != "b1" {
		t.Fatalf("report ticket misattributed: %+v", repTk)
	}
	var reported bool
	evs, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Kind == engine.EventValueReported && ev.TxID == tx1.TxID {
			reported = true
		}
	}
	if !reported {
		t.Fatal("no value-reported event on the wire")
	}

	// A second delivery stays pending; checkpoint it, then shut down.
	tx2 := deliver(280)
	if p.Arbiter.PendingExPostCount() != 1 {
		t.Fatalf("want 1 pending escrow, have %d", p.Arbiter.PendingExPostCount())
	}
	if _, _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot with pending escrow refused: %v", err)
	}
	srv.Close()
	m.Stop()

	// --- second server lifetime ------------------------------------------
	m2, err := federation.Open(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	p2 := m2.Shards()[0].Platform
	srv2 := httptest.NewServer(NewMarketServer(m2))
	defer func() {
		srv2.Close()
		m2.Stop()
	}()
	c2 := NewClient(srv2.URL)

	if p2.Arbiter.PendingExPostCount() != 1 {
		t.Fatalf("pending escrow lost across restart: %d", p2.Arbiter.PendingExPostCount())
	}
	if got := p2.Arbiter.Ledger.Escrowed(tx2.TxID); got == 0 {
		t.Fatalf("escrow for %s not restored", tx2.TxID)
	}
	repT2, err := c2.ReportAsync(tx2.TxID, 280, 280)
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c2.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("post-restart report epoch: ran=%v err=%v", ran, err)
	}
	repTk2, err := c2.WaitTicket(repT2, time.Second)
	if err != nil || repTk2.Status != engine.TicketDone || repTk2.Price <= 0 {
		t.Fatalf("post-restart report did not settle: %+v err=%v", repTk2, err)
	}
	if p2.Arbiter.PendingExPostCount() != 0 {
		t.Fatal("escrow not cleared by post-restart report")
	}
	if _, conserved, err := c2.Settlements(); err != nil || !conserved {
		t.Fatalf("settlement conservation after restart: conserved=%v err=%v", conserved, err)
	}
	// An unknown transaction fails the ticket, not the submission.
	badT, err := c2.ReportAsync("tx-9999", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	badTk, err := c2.WaitTicket(badT, time.Second)
	if err != nil || badTk.Status != engine.TicketFailed {
		t.Fatalf("bogus report should fail its ticket: %+v err=%v", badTk, err)
	}
}
