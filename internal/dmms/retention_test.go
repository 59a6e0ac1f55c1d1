package dmms

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/retain"
)

// TestRetiredTicketsAndHistoryWindow pins the API edges of bounded state: a
// terminal ticket that has left the ticket window answers 410 Gone naming
// /events (the client's ErrTicketRetired) while an ID never issued stays a
// 404; /history returns the arbiter's window plus the all-time total, with
// /settlements still listing everything; /engine/stats echoes the window
// sizes.
func TestRetiredTicketsAndHistoryWindow(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.Tickets, w.History = 3, 2 })()
	_, eng, c, stop := asyncFixture(t, engine.Config{})
	defer stop()

	wait := func(ticket string, err error) engine.Ticket {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		eng.TriggerEpoch()
		tk, err := c.WaitTicket(ticket, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	first, err := c.RegisterAsync("alice", 5000)
	wait(first, err)
	wait(c.ShareDatasetAsync("sam", "sam/d0", asyncRelation("sam/d0", 20), "open"))
	var settled []engine.Ticket
	for i := 0; i < 4; i++ {
		settled = append(settled, wait(c.SubmitRequestAsync(RequestReq{
			Buyer: "alice", Columns: []string{"x", "y"},
			Curve: []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
		})))
	}

	// Six tickets went terminal; the window keeps the newest three.
	if _, err := c.Ticket(first); !errors.Is(err, ErrTicketRetired) || !strings.Contains(err.Error(), "/events") {
		t.Fatalf("retired ticket answered %v, want ErrTicketRetired naming /events", err)
	}
	if tk, err := c.Ticket(settled[3].ID); err != nil || tk.Status != engine.TicketDone {
		t.Fatalf("newest ticket: %+v, %v", tk, err)
	}
	for _, id := range []string{"sub-000099", "bogus"} {
		if _, err := c.Ticket(id); err == nil || errors.Is(err, ErrTicketRetired) || !strings.Contains(err.Error(), "404") {
			t.Fatalf("never-issued ticket %s answered %v, want a 404", id, err)
		}
	}
	// The retired ticket's outcome is where the 410 says it is.
	evs, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		found = found || (ev.Ticket == first && ev.Kind == engine.EventRegistered)
	}
	if !found {
		t.Fatalf("no participant-registered event for retired ticket %s", first)
	}

	hist, total, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || total != 4 || hist[0].ID != settled[2].TxID || hist[1].ID != settled[3].TxID {
		t.Fatalf("history = %d entries (total %d): %+v", len(hist), total, hist)
	}
	var book []SettlementView
	for deadline := time.Now().Add(5 * time.Second); len(book) < 4 && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if book, _, err = c.Settlements(); err != nil {
			t.Fatal(err)
		}
	}
	if len(book) != 4 {
		t.Fatalf("/settlements lists %d entries, want all 4", len(book))
	}
	st, err := c.EngineStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.EventsHeld != st.Events || st.TicketsHeld != 3 || st.HistoryHeld != 2 || st.AuditHeld == 0 ||
		st.TicketsRetired != 3 || st.ReadBackEvents != 0 || st.Submitted != 6 || st.Matched != 4 {
		t.Fatalf("stats: %+v", st)
	}

	// A cursor past the head reads as empty, and the market carries on.
	if evs, err := c.Events(st.Events + 7); err != nil || len(evs) != 0 {
		t.Fatalf("events past the head: %d events, %v", len(evs), err)
	}
	if tk := wait(c.RegisterAsync("bob", 10)); tk.Status != engine.TicketDone {
		t.Fatalf("registration after the stray cursor: %+v", tk)
	}
}
