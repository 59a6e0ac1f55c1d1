package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/bench/workloads"
)

// stubGateway answers POST /async/requests with a ticket and lists a
// tx-settled record for it on GET /events — a gateway that settles at once,
// except where the test makes it stall or forget.
type stubGateway struct {
	mu       sync.Mutex
	events   []event
	tickets  int
	stallAt  time.Time     // POSTs arriving in [stallAt, stallAt+stallFor) block until its end
	stallFor time.Duration //
	forget   int           // the ticket with this number never settles
}

func (s *stubGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/async/requests":
		if now, end := time.Now(), s.stallAt.Add(s.stallFor); !now.Before(s.stallAt) && now.Before(end) {
			time.Sleep(end.Sub(now))
		}
		s.mu.Lock()
		s.tickets++
		n := s.tickets
		ticket := fmt.Sprintf("sub-%06d", n)
		if n != s.forget {
			s.events = append(s.events, event{Seq: len(s.events) + 1, Kind: "tx-settled", At: time.Now(),
				Ticket: ticket, TxID: fmt.Sprintf("tx-%06d", n), Datasets: []string{"d"}})
		}
		s.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{"ticket": ticket})
	case r.Method == http.MethodGet && r.URL.Path == "/events":
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		s.mu.Lock()
		evs := append([]event{}, s.events[min(after, len(s.events)):]...)
		s.mu.Unlock()
		_ = json.NewEncoder(w).Encode(evs)
	default:
		http.NotFound(w, r)
	}
}

// schedule is n requests, one every gap.
func schedule(n int, gap time.Duration) []workloads.Op {
	ops := make([]workloads.Op, n)
	for i := range ops {
		ops[i] = workloads.Op{Due: time.Duration(i) * gap, Path: "/async/requests", Body: []byte(`{}`), Group: 0}
	}
	return ops
}

// A stalled gateway must be charged for every request that was due while it
// stalled: latency runs from the due time, not from when a free connection
// finally sent the request (no coordinated omission).
func TestStallIsChargedToRequestsDueDuringIt(t *testing.T) {
	const (
		gap      = 5 * time.Millisecond
		stallFor = 200 * time.Millisecond
	)
	stub := &stubGateway{stallFor: stallFor}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	tailer := newEventTailer(srv.URL)
	c := newClient(senders)
	defer c.CloseIdleConnections()

	ops := schedule(120, gap) // 600 ms of schedule, stall in the middle
	start := time.Now().Add(10 * time.Millisecond)
	stallAt := 200 * time.Millisecond
	stub.stallAt = start.Add(stallAt)
	recs := fire(c, srv.URL, ops, start, tailer)
	waitOutcomes(tailer, len(ops), time.Now().Add(2*time.Second))
	tailer.stop()

	charged := 0
	for i := range recs {
		due := ops[i].Due
		if due < stallAt || due >= stallAt+stallFor {
			continue
		}
		o, ok := tailer.outcome(recs[i].ticket)
		if !ok {
			t.Fatalf("request %d never settled", i)
		}
		lat := o.at.Sub(recs[i].due)
		// It could not settle before the stall ended, whenever it was sent.
		if remaining := stallAt + stallFor - due; lat < remaining {
			t.Errorf("request due %v into the run settled after %v, before the stall's remaining %v", due, lat, remaining)
		}
		charged++
	}
	if want := int(stallFor / gap); charged != want {
		t.Fatalf("%d requests were due during the stall, want %d", charged, want)
	}
	tl := reckon(recs, tailer, time.Second)
	// A third of the schedule fell into the stall and waited 100 ms on
	// average, so the slowest third of the samples shows it; with coordinated
	// omission only the two POSTs that blocked would.
	if got := quantile(tl.latencies, 0.8); got < 40 {
		t.Errorf("latency distribution hides the stall: p80 is %.1f ms", got)
	}
	if tl.failed != 0 || len(tl.latencies) != len(ops) {
		t.Errorf("failed %d, %d samples of %d", tl.failed, len(tl.latencies), len(ops))
	}
}

// A ticket that never settles is a failure, not a latency sample; one that
// settles past the limit is both.
func TestNeverSettlingTicketCountsAsFailed(t *testing.T) {
	stub := &stubGateway{forget: 7}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	tailer := newEventTailer(srv.URL)
	c := newClient(senders)
	defer c.CloseIdleConnections()

	ops := schedule(20, time.Millisecond)
	recs := fire(c, srv.URL, ops, time.Now(), tailer)
	if waitOutcomes(tailer, len(ops), time.Now().Add(100*time.Millisecond)) {
		t.Fatal("every ticket resolved, the forgotten one too")
	}
	tailer.stop()
	tl := reckon(recs, tailer, time.Second)
	if tl.attempted != 20 || tl.failed != 1 || len(tl.latencies) != 19 {
		t.Errorf("attempted %d failed %d samples %d, want 20 / 1 / 19", tl.attempted, tl.failed, len(tl.latencies))
	}
	if late := reckon(recs, tailer, 0); late.failed != 20 || len(late.latencies) != 19 {
		t.Errorf("with a zero limit: failed %d samples %d, want 20 / 19", late.failed, len(late.latencies))
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{hundred, 0.50, 50}, {hundred, 0.95, 95}, {hundred, 0.99, 99}, {hundred, 1, 100}, {hundred, 0.001, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2}, {[]float64{1, 2, 3, 4}, 0.51, 3}, {[]float64{7}, 0.95, 7},
		// Never an interpolated or bucket-edge value: the answer is a sample.
		{[]float64{10, 1000}, 0.5, 10}, {[]float64{10, 1000}, 0.75, 1000},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v.., %g) = %g, want %g", tc.xs[0], tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	// The highest percentile with ten samples beyond it.
	for n, want := range map[int]float64{5: 0, 10: 0, 200: 95, 1000: 99, 20000: 99.95} {
		if got := supportedPercentile(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("supportedPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}
