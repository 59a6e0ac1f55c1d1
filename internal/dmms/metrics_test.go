package dmms

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/obs"
)

// scrapeMetrics GETs /metrics and returns the exposition text plus a map of
// sample name (labels included) → value for the monotonicity checks.
func scrapeMetrics(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return string(body), samples
}

// TestMetricsEndpointEndToEnd drives market traffic through a WAL-backed
// one-shard gateway (the -shards 1 boot path) and scrapes /metrics twice: the
// families the telemetry layer promises must be present with non-zero activity, and every cumulative
// sample must be monotone across scrapes.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := durableConfig(t.TempDir(), 1, "posted-baseline")
	cfg.Metrics = reg
	m, err := federation.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	s := NewMarketServer(m)
	s.SetMetrics(reg)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewClient(srv.URL)

	drive := func(buyer string) {
		t.Helper()
		if _, err := c.RegisterAsync(buyer, 5000); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		reqT, err := c.SubmitRequestAsync(RequestReq{
			Buyer:   buyer,
			Columns: []string{"x", "y"},
			Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		tk, err := c.WaitTicket(reqT, 2*time.Second)
		if err != nil || tk.Status != engine.TicketDone {
			t.Fatalf("request did not settle: %+v err=%v", tk, err)
		}
	}

	if _, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open"); err != nil {
		t.Fatal(err)
	}
	drive("b1")

	text, first := scrapeMetrics(t, srv.URL)
	for _, family := range []string{
		"engine_submit_to_settle_seconds_bucket",
		"engine_submit_to_settle_seconds_count",
		"engine_stage_seconds_bucket",
		"engine_epoch_seconds_count",
		"engine_intake_queue_depth",
		"engine_submitted_total",
		"engine_matched_total",
		"arbiter_round_seconds_count",
		"arbiter_open_requests",
		"engine_events_held",
		"engine_tickets_held",
		"arbiter_history_held",
		"ledger_audit_held",
		"engine_log_readback_events_total 0",
		"engine_tickets_retired_total 0",
		"dod_build_seconds_bucket",
		"dod_builds_total",
		"dod_cache_hits_total",
		"dod_cache_stale_total",
		"dod_cache_retained_total",
		"dod_cache_misses_total",
		"dod_cache_evictions_total",
		"dod_worker_panics_total",
		"engine_price_seconds_total",
		"market_allocator_evals_total",
		"wal_append_seconds_count",
		"wal_fsync_seconds_bucket",
		"wal_fsync_seconds_count",
		"wal_segments",
		"wal_bytes_written_total",
		"dmms_http_requests_total",
		"dmms_http_request_seconds_count",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	for sample, min := range map[string]float64{
		"engine_submit_to_settle_seconds_count": 1,
		"engine_matched_total":                  1,
		"market_allocator_evals_total":          1,
		"dod_build_seconds_count":               1,
		"wal_fsync_seconds_count":               1,
		"wal_bytes_written_total":               1,
	} {
		if first[sample] < min {
			t.Errorf("%s = %v, want >= %v", sample, first[sample], min)
		}
	}

	// More traffic, second scrape: every cumulative sample is monotone and
	// the end-to-end histogram saw the new settlements.
	drive("b2")
	_, second := scrapeMetrics(t, srv.URL)
	for sample, v1 := range first {
		cumulative := strings.Contains(sample, "_total") ||
			strings.Contains(sample, "_count") ||
			strings.Contains(sample, "_bucket") ||
			strings.Contains(sample, "_sum")
		if !cumulative {
			continue
		}
		v2, ok := second[sample]
		if !ok {
			t.Errorf("sample %s vanished between scrapes", sample)
			continue
		}
		if v2 < v1 {
			t.Errorf("sample %s went backwards: %v -> %v", sample, v1, v2)
		}
	}
	if got := second["engine_submit_to_settle_seconds_count"]; got < first["engine_submit_to_settle_seconds_count"]+1 {
		t.Errorf("submit→settle count did not advance: %v -> %v",
			first["engine_submit_to_settle_seconds_count"], got)
	}
	if got := second[`dmms_http_requests_total{route="metrics",code="200"}`]; got != 0 {
		t.Error("/metrics must not instrument itself")
	}
}

// TestMetricsEndpointDisabled pins the opt-out: a server without SetMetrics
// answers /metrics with 503, not an empty exposition.
func TestMetricsEndpointDisabled(t *testing.T) {
	s, _ := mkServer(t, postedDesign())
	wantCode(t, do(t, s, "GET", "/metrics", nil, nil), http.StatusServiceUnavailable)
}

// TestMetricsEndpointMultiShard wires a registry into a two-shard market and
// asserts the scrape carries the HTTP families plus the federation aggregates.
func TestMetricsEndpointMultiShard(t *testing.T) {
	_, s := marketFixture(t, 2)
	do(t, s, "POST", "/epoch", nil, nil)
	rec := do(t, s, "GET", "/metrics", nil, nil)
	wantCode(t, rec, http.StatusOK)
	for _, want := range []string{"federation_shards 2", "dmms_http_requests_total", "engine_epochs_total",
		"engine_events_held", "engine_tickets_held", "arbiter_history_held", "ledger_audit_held",
		"engine_log_readback_events_total", "engine_tickets_retired_total"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("scrape missing %q:\n%s", want, rec.Body)
		}
	}
}
