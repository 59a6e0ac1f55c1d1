package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/probe"
	"repro/bench/workloads"
)

// traceEvery samples one accepted request in this many for a full span set
// (client times plus the gateway's stage stamps).
const traceEvery = 50

// scrapeSlots is how many equal intervals the traced steady phase is scraped
// in: a multiple of three, so build drift compares exact thirds.
const scrapeSlots = 12

// stageOrder is the gateway's request pipeline (internal/obs stage names).
var stageOrder = []string{"submit", "admit", "enqueue", "build", "price", "settle"}

// sampler forwards to an observer and picks every traceEvery-th accepted
// ticket for the trace fetcher.
type sampler struct {
	observer
	n      atomic.Int64
	picked chan string
}

func (s *sampler) expect(ticket string) {
	s.observer.expect(ticket)
	if s.n.Add(1)%traceEvery == 0 {
		select {
		case s.picked <- ticket:
		default: // fetcher fell behind; skip the sample rather than block a sender
		}
	}
}

// traceFetcher reads the stage stamps of sampled tickets while the gateway's
// tracer still holds them (it keeps the newest 4096 spans only).
type traceFetcher struct {
	done   chan struct{}
	mu     sync.Mutex
	stamps map[string]map[string]time.Time
}

func startTraceFetcher(base string, obs observer, picked <-chan string, limit time.Duration) *traceFetcher {
	f := &traceFetcher{done: make(chan struct{}), stamps: map[string]map[string]time.Time{}}
	go func() {
		defer close(f.done)
		c := newClient(1)
		defer c.CloseIdleConnections()
		for ticket := range picked {
			deadline := time.Now().Add(limit)
			for {
				if _, ok := obs.outcome(ticket); ok || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			var tv struct {
				Trace map[string]time.Time `json:"trace"`
			}
			if err := getJSON(c, base+"/async/tickets/"+ticket, &tv); err != nil {
				continue
			}
			f.mu.Lock()
			f.stamps[ticket] = tv.Trace // nil on a federation: coordinator tickets carry no stages
			f.mu.Unlock()
		}
	}()
	return f
}

// spans turns the sampled tickets into spans: the client's own times plus
// one span per stamped gateway stage, all children of the request span.
func (f *traceFetcher) spans(recs []sent, obs observer, rec *probe.Recorder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		stamps, sampled := f.stamps[r.ticket]
		o, ok := obs.outcome(r.ticket)
		if !sampled || !ok || o.failed {
			continue
		}
		rec.Add(r.ticket, "request", "", r.due, o.at)
		rec.Add(r.ticket, "dmload.wait_send", "request", r.due, r.posted)
		rec.Add(r.ticket, "dmms.post", "request", r.posted, r.acked)
		prev := time.Time{}
		for _, stage := range stageOrder {
			at, ok := stamps[stage]
			if !ok {
				continue
			}
			if !prev.IsZero() {
				rec.Add(r.ticket, "engine."+stage, "request", prev, at)
			}
			prev = at
		}
		if !prev.IsZero() {
			rec.Add(r.ticket, "dmload.observe", "request", prev, o.at)
		}
	}
}

// scrapeGrid is what scrapeDuring delivers: scrapeSlots+1 scrapes, or the
// error that cost one of them.
type scrapeGrid struct {
	scrapes []*scrape
	err     error
}

// scrapeDuring takes scrapeSlots+1 evenly spaced scrapes over [start,
// start+length] and then sends them on the returned channel.
func scrapeDuring(base string, start time.Time, length time.Duration) <-chan scrapeGrid {
	out := make(chan scrapeGrid, 1)
	go func() {
		c := newClient(1)
		defer c.CloseIdleConnections()
		var grid scrapeGrid
		for k := 0; k <= scrapeSlots && grid.err == nil; k++ {
			time.Sleep(time.Until(start.Add(length * time.Duration(k) / scrapeSlots)))
			var s *scrape
			if s, grid.err = takeScrape(c, base); grid.err == nil {
				grid.scrapes = append(grid.scrapes, s)
			}
		}
		out <- grid
	}()
	return out
}

// tracedPass yields the per-layer metrics. It runs the steady phase twice on
// the same script — telemetry off, then on — so the ratio of the two medians
// is the tracing overhead; scrapes the traced gateway's /metrics and
// /engine/stats across the phase (source S); samples ticket traces into
// spans; and finally runs the in-process layer probes (source P).
func tracedPass(e *env, sc *workloads.Script, rec *probe.Recorder) (*result, error) {
	spec := sc.Spec
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	quiesceDisk()

	plain, err := openSession(e, sc, false)
	if err != nil {
		return nil, err
	}
	plain.tr.phase(sc.Warm, 5*spec.Limit)
	untraced := reckon(plain.tr.phase(sc.Steady, spec.Limit), plain.obs, spec.Limit)
	plain.close()
	os.RemoveAll(plain.walDir)

	ses, err := openSession(e, sc, true)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ses.walDir)
	defer ses.close()
	obs, tr := ses.obs, ses.tr
	tr.phase(sc.Warm, 5*spec.Limit)
	picked := make(chan string, len(sc.Steady)/traceEvery+1)
	tr.obs = &sampler{observer: obs, picked: picked}
	fetcher := startTraceFetcher(ses.g.base, obs, picked, spec.Limit)
	var steadyLen time.Duration
	if n := len(sc.Steady); n > 0 {
		steadyLen = sc.Steady[n-1].Due
	}
	// phase() starts its schedule 5 ms from now; the scrape grid follows it.
	scraped := scrapeDuring(ses.g.base, time.Now().Add(5*time.Millisecond), steadyLen)
	steadyRecs := tr.phase(sc.Steady, spec.Limit)
	traced := reckon(steadyRecs, obs, spec.Limit)
	close(picked)
	<-fetcher.done
	grid := <-scraped
	if grid.err != nil {
		return nil, fmt.Errorf("scrape: %w", grid.err)
	}
	state, err := captureState(ses.g.base, sc, obs.outcomes())
	if err != nil {
		return nil, err
	}
	ses.close() // SIGKILL: the probes below replay the WAL it leaves behind
	fetcher.spans(steadyRecs, obs, rec)
	sampled := rec.Len()
	unattributed := rec.SelfTimes()["request"]

	res.Attempted = untraced.attempted + traced.attempted
	res.Failed = untraced.failed + traced.failed
	problems := verify(sc, obs, tr.all, state, state)
	for _, p := range problems {
		e.logf("  VERIFY FAILED: %s", p)
	}
	res.Correct = len(problems) == 0

	all := grid.scrapes
	w := window{all[0], all[scrapeSlots]}
	wall := w.to.at.Sub(w.from.at).Seconds()
	settled := w.to.stats.Matched - w.from.stats.Matched
	epochs := w.to.stats.Epochs - w.from.stats.Epochs

	// dmload: the ruler's own health.
	put("dmload.settle_p99_ms", quantile(traced.latencies, 0.99), "ms")
	put("dmload.settle_samples", float64(len(traced.latencies)), "count")
	put("dmload.gen_lag_p99_ms", quantile(traced.genLag, 0.99), "ms")
	put("dmload.post_p50_ms", quantile(traced.postMs, 0.50), "ms")
	put("dmload.observe_gap_ms", traced.serverGap, "ms")
	put("dmload.trace_overhead_ratio", ratio(quantile(traced.latencies, 0.5), quantile(untraced.latencies, 0.5)), "ratio")
	put("dmload.fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	var stageSum float64
	for _, stage := range stageOrder[1:] {
		s, _ := w.hist("engine_stage_seconds", `stage="`+stage+`"`)
		stageSum += s
		if stage == "build" {
			continue // stamped only with a builder pool, which no workload runs: always 0
		}
		put("engine.stage_"+stage+"_mean_ms", w.histMean("engine_stage_seconds", `stage="`+stage+`"`, 1e3), "ms")
	}
	e2eSum, _ := w.hist("engine_submit_to_settle_seconds", "")
	put("dmload.stage_sum_ratio", ratio(stageSum, e2eSum), "ratio")

	// dmms
	put("dmms.post_requests_mean_us", w.histMean("dmms_http_request_seconds", `route="/async/requests"`, 1e6), "us")
	pollRoute := "/events"
	if spec.Shards > 1 {
		pollRoute = "/async/tickets/{id}"
	}
	put("dmms.events_poll_mean_us", w.histMean("dmms_http_request_seconds", `route="`+pollRoute+`"`, 1e6), "us")

	// engine
	put("engine.submit_to_settle_mean_ms", w.histMean("engine_submit_to_settle_seconds", "", 1e3), "ms")
	put("engine.epochs", epochs, "count")
	put("engine.epoch_mean_ms", w.histMean("engine_epoch_seconds", "", 1e3), "ms")
	put("engine.epoch_lag_mean_ms", w.histMean("engine_epoch_lag_seconds", "", 1e3), "ms")
	epochBusy, _ := w.hist("engine_epoch_seconds", "")
	put("engine.epoch_busy_ratio", ratio(epochBusy, wall), "ratio")
	put("engine.requests_per_epoch", ratio(settled, epochs), "count")
	put("engine.failed", w.to.stats.Failed-w.from.stats.Failed, "count")
	put("engine.rejected", w.to.stats.Rejected-w.from.stats.Rejected, "count")
	put("engine.share_applied_p50_ms", shareAppliedP50(steadyRecs, obs), "ms")

	// arbiter
	put("arbiter.round_mean_ms", w.histMean("arbiter_round_seconds", "", 1e3), "ms")

	// dod, relation
	builds := w.delta("dod_builds_total")
	hits := w.to.stats.CacheHits - w.from.stats.CacheHits
	buildS, _ := w.hist("dod_build_seconds", "")
	put("dod.builds", builds, "count")
	put("dod.build_mean_ms", w.histMean("dod_build_seconds", "", 1e3), "ms")
	put("dod.build_s_per_1k_settled", ratio(buildS, settled)*1000, "s")
	put("dod.cache_hit_ratio", ratio(hits, hits+builds), "ratio")
	put("dod.subjoin_memo_hits_per_build", ratio(w.to.stats.SubJoinHits-w.from.stats.SubJoinHits, builds), "count")
	third := scrapeSlots / 3
	first := window{all[0], all[third]}.histMean("dod_build_seconds", "", 1e3)
	last := window{all[2*third], all[scrapeSlots]}.histMean("dod_build_seconds", "", 1e3)
	put("dod.build_drift_ratio", ratio(last, first), "ratio")
	put("relation.rows_streamed_per_build", ratio(w.delta("relation_rows_streamed_total"), builds), "count")
	put("relation.materializations_per_build", ratio(w.delta("relation_materializations_total"), builds), "count")

	// market
	evals := w.to.stats.AllocEvals - w.from.stats.AllocEvals
	memo := w.to.stats.AllocMemoHits - w.from.stats.AllocMemoHits
	put("market.alloc_evals_per_settled", ratio(evals, settled), "count")
	put("market.alloc_memo_hit_ratio", ratio(memo, memo+evals), "ratio")

	// wal (a federation's shard logs carry no telemetry: all 0 there)
	_, appends := w.hist("wal_append_seconds", "")
	_, fsyncs := w.hist("wal_fsync_seconds", "")
	put("wal.appends_per_settled", ratio(appends, settled), "count")
	put("wal.append_mean_us", w.histMean("wal_append_seconds", "", 1e6), "us")
	put("wal.fsyncs_per_settled", ratio(fsyncs, settled), "count")
	put("wal.fsync_mean_ms", w.histMean("wal_fsync_seconds", "", 1e3), "ms")
	put("wal.bytes_per_settled", ratio(w.delta("wal_bytes_written_total"), settled), "B")

	// federation
	committed := w.to.stats.Federation.Committed - w.from.stats.Federation.Committed
	aborted := w.to.stats.Federation.Aborted - w.from.stats.Federation.Aborted
	var pendingMax float64
	for _, s := range all {
		pendingMax = max(pendingMax, s.stats.Federation.Pending)
	}
	put("federation.xtx_committed", committed, "count")
	put("federation.xtx_abort_ratio", ratio(aborted, aborted+committed), "ratio")
	put("federation.coord_pending_max", pendingMax, "count")

	e.logf("  traced steady: %d requests, %d latency samples (supports up to p%.2f), %d settled over %.2f s of scrapes",
		traced.attempted, len(traced.latencies), supportedPercentile(len(traced.latencies)), int(settled), wall)
	e.logf("  spans: %d from every %dth ticket; %.1f ms of their requests' time lies outside every child span",
		sampled, traceEvery, ms(unattributed))
	if lag := res.Metrics["dmload.gen_lag_p99_ms"].Value; lag > lagWarnShare*ms(spec.Limit) {
		e.logf("  WARNING: senders ran %.1f ms late at p99 (more than %.0f%% of the %v limit): the offered schedule was not kept",
			lag, 100*lagWarnShare, spec.Limit)
	}
	if r := res.Metrics["dmload.stage_sum_ratio"].Value; spec.Shards == 1 && (r < 0.98 || r > 1.02) {
		e.logf("  WARNING: gateway stage times sum to %.3f of its submit-to-settle time; the per-stage means do not add up", r)
	}
	if spec.Shards > 1 {
		e.logf("  note: the federated path stamps no stages on coordinator tickets and its shard WALs export no telemetry; engine.stage_*, dmload.stage_sum_ratio and wal.* from /metrics read 0 here")
	}

	// Layer probes, in process, on the same script.
	layers, err := probe.Layers(sc, ses.walDir, e.work, rec)
	if err != nil {
		return nil, err
	}
	for name, m := range layers {
		put(name, m.Value, m.Unit)
	}
	return res, nil
}

// lagWarnShare is the share of a workload's latency limit beyond which a p99
// sender lateness draws a warning.
const lagWarnShare = 0.1

// shareAppliedP50 is the median time from a fresh share's POST to the tailer
// reading its dataset-shared record (0 when the phase shared nothing).
func shareAppliedP50(recs []sent, obs observer) float64 {
	t, ok := obs.(*eventTailer)
	if !ok {
		return 0
	}
	t.shareMu.Lock()
	defer t.shareMu.Unlock()
	var waits []float64
	for i := range recs {
		r := &recs[i]
		if r.op.Group >= 0 || r.code != http.StatusAccepted {
			continue
		}
		if at, ok := t.shareApplied[r.ticket]; ok {
			waits = append(waits, ms(at.Sub(r.posted)))
		}
	}
	if len(waits) == 0 {
		return 0
	}
	return median(waits)
}
