package dmms

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/retain"
)

// mkServer opens an in-memory one-shard market of the given design behind
// the gateway's server, with epochs driven by hand and no telemetry.
func mkServer(t *testing.T, design *market.Design) (*Server, *Client) {
	t.Helper()
	m, err := federation.Open(federation.Config{Shards: 1, Platform: core.Options{CustomDesign: design}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewMarketServer(m)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		m.Stop()
	})
	return s, NewClient(srv.URL)
}

// settler returns settle, which runs one epoch over a submission and returns
// its terminal ticket.
func settler(t *testing.T, c *Client) (settle func(ticket string, err error) engine.Ticket) {
	return func(ticket string, err error) engine.Ticket {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		tk, err := c.WaitTicket(ticket, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
}

func postedDesign() *market.Design {
	return &market.Design{
		Label: "posted", Mechanism: market.PostedPrice{P: 40},
		Allocator: market.Uniform{}, ArbiterFee: 0.1,
	}
}

func mkRel() *relation.Relation {
	r := relation.New("sales", relation.NewSchema(
		relation.Col("region", relation.KindString),
		relation.Col("amount", relation.KindFloat),
	))
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.String_("r"+string(rune('a'+i%4))), relation.Float(float64(i)))
	}
	return r
}

// salesWant asks for both of mkRel's columns.
func salesWant(buyer string, price float64) RequestReq {
	return RequestReq{
		Buyer:   buyer,
		Columns: []string{"region", "amount"},
		Task:    TaskSpec{Kind: "coverage", WantRows: 50},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.9, Price: price}},
	}
}

// TestHTTPEndToEnd: a second registration of a name fails its ticket; a
// request clears at the posted price; the buyer fetches the mashup by the
// ticket's tx_id while the history list carries no payload; the ledgers show
// the sale.
func TestHTTPEndToEnd(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	settle := settler(t, c)
	for _, name := range []string{"s1", "b1"} {
		if tk := settle(c.RegisterAsync(name, 500)); tk.Status != engine.TicketDone {
			t.Fatalf("register %s: %+v", name, tk)
		}
	}
	if tk := settle(c.RegisterAsync("b1", 500)); tk.Status != engine.TicketFailed {
		t.Errorf("double registration must fail its ticket: %+v", tk)
	}
	if tk := settle(c.ShareDatasetAsync("s1", "sales", mkRel(), "open")); tk.Status != engine.TicketDone {
		t.Fatalf("share: %+v", tk)
	}
	tk := settle(c.SubmitRequestAsync(salesWant("b1", 60)))
	if tk.Status != engine.TicketDone || tk.Price != 40 || tk.TxID == "" {
		t.Fatalf("request ticket = %+v", tk)
	}
	var tx TxView
	if err := c.get("/history?tx="+tk.TxID, &tx); err != nil {
		t.Fatal(err)
	}
	if tx.ID != tk.TxID || tx.Buyer != "b1" || tx.Price != 40 || tx.Mashup == nil || tx.Mashup.NumRows() != 60 {
		t.Fatalf("delivered %+v", tx)
	}
	hist, total, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || total != 1 || hist[0].Mashup != nil {
		t.Errorf("history = %+v (total %d)", hist, total)
	}
	if bal, _ := c.Balance("b1"); bal != 460 {
		t.Errorf("balance = %v", bal)
	}
	if sbal, _ := c.Balance("s1"); sbal != 536 {
		t.Errorf("seller balance = %v, want 500 + 90%% of 40", sbal)
	}
}

// TestHTTPExPost: an ex-post sale settles at the reported value once the
// report's epoch runs; a report naming no pending sale fails its ticket.
func TestHTTPExPost(t *testing.T) {
	_, c := mkServer(t, &market.Design{
		Label: "xp", Elicitation: market.ElicitExPost,
		Mechanism: market.ExPost{Deposit: 100, AuditProb: 0, Penalty: 1},
		Allocator: market.Uniform{},
	})
	settle := settler(t, c)
	settle(c.RegisterAsync("s1", 0))
	settle(c.RegisterAsync("b1", 500))
	settle(c.ShareDatasetAsync("s1", "sales", mkRel(), "open"))
	sale := settle(c.SubmitRequestAsync(salesWant("b1", 1)))
	if sale.Status != engine.TicketDone {
		t.Fatalf("ex-post sale = %+v", sale)
	}
	if paid := settle(c.ReportAsync(sale.TxID, 55, 55)); paid.Status != engine.TicketDone || paid.Price != 55 {
		t.Errorf("report = %+v, want paid 55", paid)
	}
	if bogus := settle(c.ReportAsync("bogus", 1, 1)); bogus.Status != engine.TicketFailed {
		t.Errorf("bad tx id must fail its ticket: %+v", bogus)
	}
}

// TestHTTPValidation: malformed submissions are refused at intake with no
// ticket; a request with no columns gets a ticket that fails in its epoch.
func TestHTTPValidation(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	settle := settler(t, c)
	if _, err := c.ShareDatasetAsync("", "", nil, "open"); err == nil {
		t.Error("missing fields must fail")
	}
	if _, err := c.SubmitRequestAsync(RequestReq{
		Buyer: "ghost", Columns: []string{"x"},
		Task:  TaskSpec{Kind: "alien"},
		Curve: []CurvePointSpec{{0.5, 1}},
	}); err == nil {
		t.Error("unknown task kind must fail")
	}
	if tk := settle(c.SubmitRequestAsync(RequestReq{Buyer: "ghost"})); tk.Status != engine.TicketFailed {
		t.Errorf("empty columns must fail: %+v", tk)
	}
	if _, err := c.Balance(""); err == nil {
		t.Error("missing account must fail")
	}
	for name, funds := range map[string]float64{"debtor": -1, "whale": 1e13} {
		if _, err := c.RegisterAsync(name, funds); err == nil {
			t.Errorf("funds %g must fail", funds)
		}
	}
}

// TestHTTPDemandSignals: a want no dataset covers surfaces on /demand.
func TestHTTPDemandSignals(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	settle := settler(t, c)
	settle(c.RegisterAsync("b1", 100))
	if _, err := c.SubmitRequestAsync(RequestReq{
		Buyer: "b1", Columns: []string{"unicorn"},
		Curve: []CurvePointSpec{{0.5, 10}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	var signals []map[string]any
	if err := c.get("/demand", &signals); err != nil {
		t.Fatal(err)
	}
	if len(signals) == 0 {
		t.Error("unmet demand must surface")
	}
}

// TestHistoryDeliversMashup: GET /history?tx=<id> hands back the mashup a
// sale delivered, by the federation-form ID its ticket carries, while the
// shard's history window holds the sale with a relation; otherwise it
// answers 404 saying why.
func TestHistoryDeliversMashup(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		window  int  // history window to shrink to (0 = the default)
		sales   int  // sales after the fetched one
		restart bool // reboot the market from its WAL before the fetch
		span    bool // the want joins a dataset of each of two shards
		id      string
		why     string // in the 404's error; "" = delivered
	}{
		{name: "one shard", shards: 1},
		{name: "two shards", shards: 2},
		{name: "across shards", shards: 2, span: true},
		{name: "unknown id", shards: 1, id: "tx-999999", why: "not in the history window"},
		{name: "past the window", shards: 1, window: 1, sales: 1, why: "not in the history window"},
		{name: "restored from the WAL", shards: 1, restart: true, why: "restored from the durable log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.window > 0 {
				defer retain.Shrink(func(w *retain.Windows) { w.History = tc.window })()
			}
			cfg := durableConfig(t.TempDir(), tc.shards, "posted-baseline")
			m, err := federation.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { m.Stop() }()
			s := NewMarketServer(m)
			// Buyer and seller share the last shard, so at two shards the
			// sale is local to shard 1 and its ID carries the "s1:" prefix.
			// Across shards the buyer and one seller live on shard 0 and the
			// other seller on shard 1: the sale's ID carries the buyer's
			// home, "s0:".
			home := tc.shards - 1
			if tc.span {
				home = 0
			}
			buyer, seller := nameOn(t, "buyer", home, tc.shards), nameOn(t, "seller", home, tc.shards)
			do(t, s, "POST", "/async/participants", ParticipantReq{Name: buyer, Funds: 5000}, nil)
			want := salesWant(buyer, 150)
			if tc.span {
				other := nameOn(t, "other", 1, tc.shards)
				do(t, s, "POST", "/async/datasets", DatasetReq{Seller: seller, ID: "left", Relation: keyedRel("left", "a", 60)}, nil)
				do(t, s, "POST", "/async/datasets", DatasetReq{Seller: other, ID: "right", Relation: keyedRel("right", "b", 60)}, nil)
				want.Columns = []string{"a", "b"}
			} else {
				do(t, s, "POST", "/async/datasets", DatasetReq{Seller: seller, ID: "sales", Relation: mkRel()}, nil)
			}
			do(t, s, "POST", "/epoch", nil, nil)
			var tickets []TicketResp
			for i := 0; i <= tc.sales; i++ {
				var tk TicketResp
				wantCode(t, do(t, s, "POST", "/async/requests", want, &tk), http.StatusAccepted)
				do(t, s, "POST", "/epoch", nil, nil)
				tickets = append(tickets, tk)
			}
			var tv TicketView
			wantCode(t, do(t, s, "GET", "/async/tickets/"+tickets[0].Ticket, nil, &tv), http.StatusOK)
			if tv.Status != engine.TicketDone {
				t.Fatalf("sale ticket = %+v", tv.Ticket)
			}
			if want := fmt.Sprintf("s%d:tx-", home); tc.shards > 1 && !strings.HasPrefix(tv.TxID, want) {
				t.Fatalf("tx_id %q, want prefix %q", tv.TxID, want)
			}
			if tc.restart {
				m.Stop()
				if m, err = federation.Open(cfg); err != nil {
					t.Fatal(err)
				}
				s = NewMarketServer(m)
			}
			id := tc.id
			if id == "" {
				id = tv.TxID
			}
			if tc.why != "" {
				rec := do(t, s, "GET", "/history?tx="+id, nil, nil)
				wantCode(t, rec, http.StatusNotFound)
				if !strings.Contains(rec.Body.String(), tc.why) {
					t.Fatalf("404 body %s does not say %q", rec.Body, tc.why)
				}
				return
			}
			var tx TxView
			wantCode(t, do(t, s, "GET", "/history?tx="+id, nil, &tx), http.StatusOK)
			if tx.ID != id || tx.Buyer != buyer || tx.Price != tv.Price || tx.Mashup == nil || tx.Mashup.NumRows() != 60 {
				t.Fatalf("delivered %+v, want %s's 60-row mashup", tx, id)
			}
		})
	}
}
