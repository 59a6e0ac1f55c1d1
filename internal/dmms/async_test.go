package dmms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/relation"
)

func asyncFixture(t *testing.T, cfg engine.Config) (*core.Platform, *engine.Engine, *Client, func()) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(p, cfg)
	eng.Start()
	srv := httptest.NewServer(NewEngineServer(p, eng))
	return p, eng, NewClient(srv.URL), func() {
		srv.Close()
		eng.Stop()
	}
}

func asyncRelation(name string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("x", relation.KindInt), relation.Col("y", relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
	}
	return r
}

// marketFixture opens an in-memory market of the given shard count behind
// the gateway's server, with telemetry on so tickets carry stage traces.
func marketFixture(t *testing.T, shards int) (*federation.Market, *Server) {
	t.Helper()
	reg := obs.NewRegistry()
	m, err := federation.Open(federation.Config{
		Shards:   shards,
		Engine:   engine.Config{},
		Platform: core.Options{Design: "posted-baseline"},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	s := NewMarketServer(m)
	s.SetMetrics(reg)
	return m, s
}

// nameOn brute-forces a participant name hashing to the given home shard,
// so the HTTP workload can pin buyers and sellers to shards deterministically.
func nameOn(t *testing.T, prefix string, shard, shards int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if federation.HomeOf(n, shards) == shard {
			return n
		}
	}
	t.Fatalf("no name with prefix %q on shard %d/%d", prefix, shard, shards)
	return ""
}

// keyedRel builds a join-half relation (shared key k + one value column),
// so a want for both value columns clears only through a cross-dataset join.
func keyedRel(name, valCol string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col(valCol, relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

// do runs one request against the handler and decodes the JSON response
// into out (skipped when out is nil).
func do(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(buf)))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func wantCode(t *testing.T, rec *httptest.ResponseRecorder, code int) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("got HTTP %d (%s), want %d", rec.Code, rec.Body.String(), code)
	}
}

// TestAsyncSubmitPoll walks the full async lifecycle over HTTP at one and
// two shards — the same server, the same handlers: register, share and
// request return tickets; an epoch clears the market; tickets (with their
// stage trace), per-shard events, the merged settlement / history / stats
// views and home-routed balances report the outcome. What differs by shard
// count is only what the federation derives from it: bare IDs and an
// addressable bare /events at one shard; shard-prefixed IDs and a 2PC
// settlement for the spanning want at two, which is filed, delivered and
// counted on its buyer's home shard like the local one.
func TestAsyncSubmitPoll(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, s := marketFixture(t, shards)
			last := shards - 1
			prefix := func(shard int) string {
				if shards == 1 {
					return ""
				}
				return fmt.Sprintf("s%d:", shard)
			}
			buyer := nameOn(t, "buyer", 0, shards)
			sellA := nameOn(t, "sellA", 0, shards)
			sellB := nameOn(t, "sellB", last, shards)

			var tk TicketResp
			wantCode(t, do(t, s, "POST", "/async/participants", ParticipantReq{Name: buyer, Funds: 5000}, &tk), http.StatusAccepted)
			if tk.Ticket != prefix(0)+"sub-000001" {
				t.Fatalf("buyer ticket %q, want %q", tk.Ticket, prefix(0)+"sub-000001")
			}
			wantCode(t, do(t, s, "POST", "/async/datasets", DatasetReq{
				Seller: sellA, ID: sellA + "/d0", Relation: keyedRel(sellA+"/d0", "a", 40)}, nil), http.StatusAccepted)
			wantCode(t, do(t, s, "POST", "/async/datasets", DatasetReq{
				Seller: sellB, ID: sellB + "/d0", Relation: keyedRel(sellB+"/d0", "b", 40)}, &tk), http.StatusAccepted)
			if !strings.HasPrefix(tk.Ticket, prefix(last)+"sub-") {
				t.Fatalf("sellB ticket %q not on shard %d", tk.Ticket, last)
			}
			var tv TicketView
			wantCode(t, do(t, s, "GET", "/async/tickets/"+tk.Ticket, nil, &tv), http.StatusOK)
			if tv.Status != engine.TicketQueued {
				t.Fatalf("share should still be queued before the epoch: %+v", tv.Ticket)
			}
			var ep struct {
				Ran bool `json:"ran"`
			}
			wantCode(t, do(t, s, "POST", "/epoch", nil, &ep), http.StatusOK)
			if !ep.Ran {
				t.Fatal("epoch did not run")
			}

			// A want the buyer's home shard covers alone, and one needing both
			// sellers: a local join at one shard, a spanning want at two.
			var local, span TicketResp
			wantCode(t, do(t, s, "POST", "/async/requests", RequestReq{
				Buyer: buyer, Columns: []string{"k", "a"},
				Task:  TaskSpec{Kind: "coverage", WantRows: 1},
				Curve: []CurvePointSpec{{MinSatisfaction: 0.5, Price: 100}},
			}, &local), http.StatusAccepted)
			wantCode(t, do(t, s, "POST", "/async/requests", RequestReq{
				Buyer: buyer, Columns: []string{"a", "b"},
				Task:  TaskSpec{Kind: "coverage", WantRows: 1},
				Curve: []CurvePointSpec{{MinSatisfaction: 0.9, Price: 900}},
			}, &span), http.StatusAccepted)
			if !strings.HasPrefix(local.Ticket, prefix(0)+"sub-") {
				t.Fatalf("local want ticket %q not on shard 0", local.Ticket)
			}
			if !strings.HasPrefix(span.Ticket, prefix(0)+"sub-") {
				t.Fatalf("two-seller want ticket %q not on shard 0", span.Ticket)
			}
			do(t, s, "POST", "/epoch", nil, nil)

			// Shard tickets carry their stage trace at every shard count.
			wantCode(t, do(t, s, "GET", "/async/tickets/"+local.Ticket, nil, &tv), http.StatusOK)
			if tv.Status != engine.TicketDone || !strings.HasPrefix(tv.TxID, prefix(0)+"tx-") || tv.Price != 100 {
				t.Fatalf("local want not settled at the posted price: %+v", tv.Ticket)
			}
			if _, ok := tv.Trace[obs.StageSettle]; !ok {
				t.Fatalf("shard ticket carries no settle stamp: %v", tv.Trace)
			}
			tv = TicketView{}
			wantCode(t, do(t, s, "GET", "/async/tickets/"+span.Ticket, nil, &tv), http.StatusOK)
			if tv.Status != engine.TicketDone || !strings.HasPrefix(tv.TxID, prefix(0)+"tx-") {
				t.Fatalf("two-seller ticket = %+v", tv.Ticket)
			}
			if _, ok := tv.Trace[obs.StageSettle]; !ok {
				t.Fatalf("two-seller ticket carries no settle stamp: %v", tv.Trace)
			}
			// The buyer fetches the two-seller mashup by tx_id, from the home
			// shard's history window at every shard count.
			spanTx := tv.TxID
			var tx TxView
			wantCode(t, do(t, s, "GET", "/history?tx="+spanTx, nil, &tx), http.StatusOK)
			if tx.ID != spanTx || tx.Mashup == nil || tx.Mashup.NumRows() == 0 || len(tx.Datasets) != 2 {
				t.Fatalf("two-seller delivery = %+v", tx)
			}
			wantCode(t, do(t, s, "GET", "/async/tickets/nope", nil, nil), http.StatusNotFound)

			// Stats: both settles counted, federation block present.
			var sv StatsView
			wantCode(t, do(t, s, "GET", "/engine/stats", nil, &sv), http.StatusOK)
			if sv.Matched != 2 || sv.Epochs < 1 {
				t.Fatalf("stats = %+v", sv.Stats)
			}
			if want := (FederationDetail{Shards: shards, XTxCommitted: uint64(shards - 1)}); !reflect.DeepEqual(sv.Federation, want) {
				t.Fatalf("federation block = %+v, want %+v", sv.Federation, want)
			}
			wantCode(t, do(t, s, "GET", "/engine/stats?per-shard=1", nil, &sv), http.StatusOK)
			if len(sv.Federation.PerShard) != shards {
				t.Fatalf("per-shard detail has %d entries, want %d", len(sv.Federation.PerShard), shards)
			}
			var one engine.Stats
			wantCode(t, do(t, s, "GET", fmt.Sprintf("/engine/stats?shard=%d", last), nil, &one), http.StatusOK)
			if want := uint64(2 - 2*last); one.Matched != want {
				t.Fatalf("shard %d Matched = %d, want %d (every settle touches shard 0's book)", last, one.Matched, want)
			}
			wantCode(t, do(t, s, "GET", "/engine/stats?shard=9", nil, nil), http.StatusBadRequest)

			// Settlement book and history: merged across shards, IDs in
			// federation form. The book is fed by each engine's event-log
			// subscriber, so poll briefly. The book has no cross-shard sale
			// (its legs are xtx events), so one entry at two shards; the home
			// shard's history has both sales at every shard count.
			var book struct {
				Settlements []SettlementView `json:"settlements"`
				Conserved   bool             `json:"conserved"`
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				wantCode(t, do(t, s, "GET", "/settlements", nil, &book), http.StatusOK)
				if len(book.Settlements) == 3-shards || time.Now().After(deadline) {
					break
				}
			}
			if !book.Conserved || len(book.Settlements) != 3-shards {
				t.Fatalf("settlement book = %+v", book)
			}
			var page HistoryResp
			wantCode(t, do(t, s, "GET", "/history", nil, &page), http.StatusOK)
			hist := page.Transactions
			if len(hist) != 2 || page.Total != 2 || hist[1].ID != spanTx {
				t.Fatalf("history has %d entries (total %d), want 2 ending in %s", len(hist), page.Total, spanTx)
			}
			for i, st := range book.Settlements {
				if !strings.HasPrefix(st.TxID, prefix(0)+"tx-") || st.Buyer != buyer || hist[i].ID != st.TxID || hist[i].Mashup != nil {
					t.Fatalf("settlement %+v / history %+v", st, hist[i])
				}
			}
			wantCode(t, do(t, s, "GET", "/demand", nil, &[]map[string]any{}), http.StatusOK)

			// Events are per-shard orderings: the bare path addresses the only
			// shard, a multi-shard market demands ?shard=i.
			bare := do(t, s, "GET", "/events", nil, nil)
			if shards == 1 {
				wantCode(t, bare, http.StatusOK)
			} else {
				wantCode(t, bare, http.StatusBadRequest)
			}
			var evs []engine.Event
			wantCode(t, do(t, s, "GET", "/events?shard=0", nil, &evs), http.StatusOK)
			settled := 0
			for i, ev := range evs {
				if ev.Seq != i+1 || ev.Payload != nil {
					t.Fatalf("event %d: seq %d, payload redacted=%v", i, ev.Seq, ev.Payload == nil)
				}
				if ev.Kind == engine.EventTxSettled {
					settled++
				}
			}
			if len(evs) == 0 || evs[0].Kind != engine.EventEpochStart || settled != 3-shards {
				t.Fatalf("shard 0 log: %d events, %d settles", len(evs), settled)
			}
			// Incremental cursor: nothing new after the last seq.
			wantCode(t, do(t, s, "GET", fmt.Sprintf("/events?shard=0&after=%d", len(evs)), nil, &evs), http.StatusOK)
			if len(evs) != 0 {
				t.Fatalf("expected empty tail, got %d events", len(evs))
			}

			// Balances route to the home shard's ledger; unknown accounts are
			// 404 at every shard count.
			var bal map[string]float64
			wantCode(t, do(t, s, "GET", "/balance?account="+sellB, nil, &bal), http.StatusOK)
			if bal["balance"] <= 0 {
				t.Fatalf("seller B balance = %v, want > 0", bal["balance"])
			}
			wantCode(t, do(t, s, "GET", "/balance?account=nobody", nil, nil), http.StatusNotFound)
			wantCode(t, do(t, s, "GET", "/balance", nil, nil), http.StatusBadRequest)
			// Funds the ledger cannot hold are refused before a ticket exists.
			for _, funds := range []float64{-1, 1e13} {
				wantCode(t, do(t, s, "POST", "/async/participants", ParticipantReq{Name: "whale", Funds: funds}, nil), http.StatusBadRequest)
			}

			var designs map[string]any
			wantCode(t, do(t, s, "GET", "/designs", nil, &designs), http.StatusOK)
			if designs["design"] != "posted-baseline" || designs["shards"] != float64(shards) {
				t.Fatalf("designs = %v", designs)
			}

			// In-memory market: no snapshot lineage.
			wantCode(t, do(t, s, "POST", "/snapshot", nil, nil), http.StatusServiceUnavailable)
			// Every mutation goes through a ticket: no synchronous routes.
			wantCode(t, do(t, s, "POST", "/match", nil, nil), http.StatusNotFound)
			wantCode(t, do(t, s, "POST", "/participants", ParticipantReq{Name: "x", Funds: 1}, nil), http.StatusNotFound)

			if shards > 1 {
				// A cross-shard sale settles up-front: an ex-post report on it
				// fails its ticket, like one on any sale that owes none.
				var rtk TicketResp
				wantCode(t, do(t, s, "POST", "/async/report",
					ReportReq{TxID: spanTx, Reported: 1, TrueValue: 1}, &rtk), http.StatusAccepted)
				do(t, s, "POST", "/epoch", nil, nil)
				wantCode(t, do(t, s, "GET", "/async/tickets/"+rtk.Ticket, nil, &tv), http.StatusOK)
				if tv.Status != engine.TicketFailed {
					t.Fatalf("report on a cross-shard sale = %+v", tv.Ticket)
				}
			}
		})
	}
}

// TestAsyncConcurrentClients hammers the HTTP surface from parallel clients
// while a fast ticker clears epochs in the background.
func TestAsyncConcurrentClients(t *testing.T) {
	p, eng, c, done := asyncFixture(t, engine.Config{EpochEvery: 2 * time.Millisecond})
	defer done()

	if _, err := c.RegisterAsync("b1", 100000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tickets []string
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a'+i)) + "-seller"
			id := name + "/d"
			if _, err := c.ShareDatasetAsync(name, id, asyncRelation(id, 10), "open"); err != nil {
				t.Error(err)
				return
			}
			tk, err := c.SubmitRequestAsync(RequestReq{
				Buyer:   "b1",
				Columns: []string{"x", "y"},
				Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 120}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			tickets = append(tickets, tk)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, id := range tickets {
		tk, err := c.WaitTicket(id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Status != engine.TicketDone {
			t.Fatalf("ticket %s: %+v", id, tk)
		}
	}
	eng.Stop()
	if !eng.Settlements().Cut().Conserved() {
		t.Fatal("settlement conservation violated")
	}
	if i := p.Arbiter.Ledger.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupted at entry %d", i)
	}
}
