package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/workloads"
)

// senders is the number of sender connections: the load comes from one
// process over at most nproc (= 2) connections.
const senders = 2

// pollEvery is how often an observer asks the gateway for news. It bounds
// what observation adds to every latency sample (mean pollEvery/2) and is
// reported as part of dmload.observe_gap_ms.
const pollEvery = 2 * time.Millisecond

// sent is the client-side record of one POSTed op.
type sent struct {
	op     *workloads.Op
	due    time.Time // when the schedule wanted it sent
	posted time.Time // just before the POST was written
	acked  time.Time // response fully read
	code   int       // 0 when the POST itself failed
	ticket string
}

// newClient returns an HTTP client limited to conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// post sends one op and returns the status code and, on 202, the ticket.
func post(c *http.Client, base string, op *workloads.Op) (int, string) {
	resp, err := c.Post(base+op.Path, "application/json", bytes.NewReader(op.Body))
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	var tr struct {
		Ticket string `json:"ticket"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, ""
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, tr.Ticket
}

// fire sends ops on the schedule start+op.Due from `senders` connections and
// returns one record per op, in op order. It is an open loop: the schedule
// never waits for settlements, and when the connections are busy past an op's
// due time the op goes out late with its original due time kept, so a stalled
// gateway is charged for every request that was due during the stall. Each
// accepted request ticket is announced to obs before fire moves on.
func fire(c *http.Client, base string, ops []workloads.Op, start time.Time, obs observer) []sent {
	out := make([]sent, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				rec := &out[i]
				rec.op = &ops[i]
				rec.due = start.Add(ops[i].Due)
				if wait := time.Until(rec.due); wait > 0 {
					time.Sleep(wait)
				}
				rec.posted = time.Now()
				rec.code, rec.ticket = post(c, base, rec.op)
				rec.acked = time.Now()
				if rec.code == http.StatusAccepted && rec.op.Group >= 0 {
					obs.expect(rec.ticket)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// outcome is what an observer learned about one request ticket.
type outcome struct {
	at       time.Time // client clock at observation
	serverAt time.Time // gateway's own settle stamp (zero when unknown)
	txID     string
	datasets []string
	failed   bool // the ticket failed instead of settling
}

// observer watches a gateway for request outcomes. expect announces a ticket
// the gateway accepted; outcomes counts tickets resolved so far (settled or
// failed); stop ends the watcher and waits for it.
type observer interface {
	expect(ticket string)
	outcomes() int
	outcome(ticket string) (outcome, bool)
	stop()
}

// watcher is what both observers are built on: the locked result store, a
// connection of its own, and a goroutine that calls step every pollEvery
// until stop.
type watcher struct {
	mu   sync.Mutex
	byID map[string]outcome
	n    atomic.Int64

	c    *http.Client
	base string
	quit chan struct{}
	done chan struct{}
}

func newWatcher(base string) watcher {
	return watcher{byID: map[string]outcome{}, c: newClient(1), base: base,
		quit: make(chan struct{}), done: make(chan struct{})}
}

func (s *watcher) run(step func()) {
	defer close(s.done)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			step()
		}
	}
}

func (s *watcher) stop() {
	close(s.quit)
	<-s.done
	s.c.CloseIdleConnections()
}

func (s *watcher) put(ticket string, o outcome) {
	s.mu.Lock()
	if _, dup := s.byID[ticket]; !dup {
		s.byID[ticket] = o
		s.n.Add(1)
	}
	s.mu.Unlock()
}

func (s *watcher) outcomes() int { return int(s.n.Load()) }

func (s *watcher) outcome(ticket string) (outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.byID[ticket]
	return o, ok
}

// event is the part of a gateway event-log record the benchmark reads.
type event struct {
	Seq        int                `json:"seq"`
	Kind       string             `json:"kind"`
	At         time.Time          `json:"at"`
	Ticket     string             `json:"ticket"`
	TxID       string             `json:"tx_id"`
	Datasets   []string           `json:"datasets"`
	XTxRole    string             `json:"xtx_role"`
	RemoteCuts map[string]float64 `json:"remote_cuts"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// eventTailer follows a single-arbiter gateway's /events log on its own
// connection. A request is settled when the tailer has read its tx-settled
// record; shareApplied keeps when each dataset-shared record was read.
type eventTailer struct {
	watcher
	cursor int

	shareMu      sync.Mutex
	shareApplied map[string]time.Time
}

func newEventTailer(base string) *eventTailer {
	t := &eventTailer{watcher: newWatcher(base), shareApplied: map[string]time.Time{}}
	go t.run(t.poll)
	return t
}

func (t *eventTailer) expect(string) {}

func (t *eventTailer) poll() {
	var evs []event
	if err := getJSON(t.c, fmt.Sprintf("%s/events?after=%d", t.base, t.cursor), &evs); err != nil {
		return // the gateway may be stalled or gone; the phase deadline decides
	}
	now := time.Now()
	for _, ev := range evs {
		t.cursor = ev.Seq
		switch ev.Kind {
		case "tx-settled":
			t.put(ev.Ticket, outcome{at: now, serverAt: ev.At, txID: ev.TxID, datasets: ev.Datasets})
		case "submission-rejected":
			if ev.Ticket != "" {
				t.put(ev.Ticket, outcome{at: now, failed: true})
			}
		case "dataset-shared":
			t.shareMu.Lock()
			t.shareApplied[ev.Ticket] = now
			t.shareMu.Unlock()
		}
	}
}

// ticketPoller watches coordinator ("x:") tickets on a federated gateway,
// whose cross-shard settlements appear in no shard's tx-settled stream. The
// coordinator settles wants in arrival order, so each sweep polls only the
// oldest few outstanding tickets.
type ticketPoller struct {
	watcher

	pendMu  sync.Mutex
	pending []string
}

// pollWindow is how many of the oldest outstanding tickets one sweep polls.
const pollWindow = 8

func newTicketPoller(base string) *ticketPoller {
	p := &ticketPoller{watcher: newWatcher(base)}
	go p.run(p.poll)
	return p
}

func (p *ticketPoller) expect(ticket string) {
	p.pendMu.Lock()
	p.pending = append(p.pending, ticket)
	p.pendMu.Unlock()
}

type ticketView struct {
	Status string `json:"status"`
	TxID   string `json:"tx_id"`
	Err    string `json:"error"`
}

func (p *ticketPoller) poll() {
	p.pendMu.Lock()
	// Two senders announce tickets slightly out of order; the coordinator
	// numbers them in its own arrival order, which sorting recovers.
	sort.Strings(p.pending)
	window := append([]string(nil), p.pending[:min(pollWindow, len(p.pending))]...)
	p.pendMu.Unlock()
	resolved := map[string]bool{}
	for _, id := range window {
		var tv ticketView
		if err := getJSON(p.c, p.base+"/async/tickets/"+id, &tv); err != nil {
			continue
		}
		switch tv.Status {
		case "done":
			p.put(id, outcome{at: time.Now(), txID: tv.TxID})
			resolved[id] = true
		case "failed":
			p.put(id, outcome{at: time.Now(), failed: true})
			resolved[id] = true
		}
	}
	if len(resolved) == 0 {
		return
	}
	p.pendMu.Lock()
	keep := p.pending[:0]
	for _, id := range p.pending {
		if !resolved[id] {
			keep = append(keep, id)
		}
	}
	p.pending = keep
	p.pendMu.Unlock()
}

// waitOutcomes blocks until obs has resolved want tickets or the deadline
// passes, and reports whether it got them all.
func waitOutcomes(obs observer, want int, deadline time.Time) bool {
	for obs.outcomes() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// tally is the outcome of one traffic phase.
type tally struct {
	attempted int // requests sent (shares not counted)
	failed    int // non-202, failed tickets, unsettled or settled past the limit
	// latencies are due-time to observed-settlement, in ms, sorted, one per
	// request that settled (however late).
	latencies []float64
	genLag    []float64 // posted - due, ms, sorted
	postMs    []float64 // acked - posted, ms, sorted
	// serverGap is mean(observed - gateway's settle stamp) in ms over settled
	// requests: what polling adds on top of the gateway's own clock.
	serverGap float64
	first     time.Time // first POST written
	last      time.Time // last settlement observed
}

// reckon joins the senders' records with the observer's outcomes.
func reckon(recs []sent, obs observer, limit time.Duration) tally {
	var t tally
	var gapSum float64
	var gapN int
	for i := range recs {
		r := &recs[i]
		if r.op.Group < 0 {
			continue
		}
		t.attempted++
		if t.first.IsZero() || r.posted.Before(t.first) {
			t.first = r.posted
		}
		t.genLag = append(t.genLag, ms(r.posted.Sub(r.due)))
		t.postMs = append(t.postMs, ms(r.acked.Sub(r.posted)))
		if r.code != http.StatusAccepted {
			t.failed++
			continue
		}
		o, ok := obs.outcome(r.ticket)
		if !ok || o.failed {
			t.failed++
			continue
		}
		lat := o.at.Sub(r.due)
		t.latencies = append(t.latencies, ms(lat))
		if lat > limit {
			t.failed++
		}
		if o.at.After(t.last) {
			t.last = o.at
		}
		if !o.serverAt.IsZero() {
			gapSum += ms(o.at.Sub(o.serverAt))
			gapN++
		}
	}
	sort.Float64s(t.latencies)
	sort.Float64s(t.genLag)
	sort.Float64s(t.postMs)
	if gapN > 0 {
		t.serverGap = gapSum / float64(gapN)
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the exact nearest-rank q-quantile of sorted raw samples: the
// smallest sample with at least q of the samples at or below it. No
// interpolation, no buckets. Zero samples yield NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts xs in place and returns their nearest-rank median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// supportedPercentile is the highest percentile with at least ten samples
// beyond it, as a percentage (0 when there are ten samples or fewer).
func supportedPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}
