package engine

import (
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/relation"
)

// engineMetrics is the engine's telemetry surface: instruments registered on
// the Config.Metrics registry plus the request tracer. It is always
// constructed (never nil on a live engine) but with a nil registry every
// instrument inside is nil — and obs instruments are nil-safe no-ops — so
// instrumented code paths carry no "telemetry enabled?" branches beyond the
// on() guard that skips timestamp capture.
//
// Everything here is derived state: metrics observe the event flow, they
// never join it. No instrument writes to the event log or WAL, which is what
// keeps the crash/replay matrix byte-identical with telemetry enabled.
type engineMetrics struct {
	enabled bool
	// label is the federation shard label (Config.ShardLabel). When set, the
	// unlabeled families below are shared with sibling shard engines on the
	// same registry (idempotent registration returns one instrument, so they
	// aggregate across the federation), and the sh* vec children add the
	// per-shard view under `shard`-labeled families. The tracer histograms
	// stay unlabeled on purpose: submit→settle latency is a market-wide
	// figure, and consumers (the bench artifact) pull them back by name as
	// plain histograms.
	label string

	epochDur   *obs.Histogram  // engine_epoch_seconds
	epochLag   *obs.Histogram  // engine_epoch_lag_seconds
	roundDur   *obs.Histogram  // arbiter_round_seconds
	depth      *obs.Gauge      // engine_intake_queue_depth (engine_shard_intake_queue_depth{shard} when labeled)
	rejections *obs.CounterVec // engine_admission_rejections_total{reason}
	aged       *obs.Counter    // engine_aged_requests_total
	tracer     *obs.Tracer     // submit→settle spans

	// Per-shard views, nil unless label != "".
	shEpochDur   *obs.Histogram  // engine_shard_epoch_seconds{shard}
	shRoundDur   *obs.Histogram  // engine_shard_round_seconds{shard}
	shRejections *obs.CounterVec // engine_shard_admission_rejections_total{shard,reason}
	shAged       *obs.Counter    // engine_shard_aged_requests_total{shard}

	mu        sync.Mutex
	lastEpoch time.Time // previous counted epoch's completion, for lag
}

// on reports whether telemetry is live (and guards time.Now() capture on hot
// paths, so a metrics-less engine pays nothing).
func (m *engineMetrics) on() bool { return m != nil && m.enabled }

// newEngineMetrics registers the engine's instruments on reg. A nil reg
// yields a disabled (but non-nil) sink. A non-empty label (a federation
// shard index) adds the per-shard labeled families next to the shared
// unlabeled aggregates.
func newEngineMetrics(reg *obs.Registry, label string) *engineMetrics {
	if reg == nil {
		return &engineMetrics{}
	}
	m := &engineMetrics{
		enabled: true,
		label:   label,
		epochDur: reg.NewHistogram("engine_epoch_seconds",
			"Wall-clock duration of counted epochs (drain, apply, build, price, publish).", obs.DefBuckets),
		epochLag: reg.NewHistogram("engine_epoch_lag_seconds",
			"Gap between consecutive counted epochs.", obs.DefBuckets),
		roundDur: reg.NewHistogram("arbiter_round_seconds",
			"Wall-clock duration of the pricing stage of each matching round.", obs.DefBuckets),
		rejections: reg.NewCounterVec("engine_admission_rejections_total",
			"Submissions rejected by admission control, by reason.", "reason"),
		aged: reg.NewCounter("engine_aged_requests_total",
			"Requests the matching policy's per-epoch cap deferred at least once."),
		tracer: obs.NewTracer(
			reg.NewHistogram("engine_submit_to_settle_seconds",
				"End-to-end latency from request submission to settlement.", obs.DefBuckets),
			reg.NewHistogramVec("engine_stage_seconds",
				"Latency of each request pipeline stage (delta from the previous stamped stage).",
				obs.DefBuckets, "stage"),
			0),
	}
	if label != "" {
		m.shEpochDur = reg.NewHistogramVec("engine_shard_epoch_seconds",
			"Wall-clock duration of counted epochs, per federation shard.",
			obs.DefBuckets, "shard").With(label)
		m.shRoundDur = reg.NewHistogramVec("engine_shard_round_seconds",
			"Wall-clock duration of the pricing stage, per federation shard.",
			obs.DefBuckets, "shard").With(label)
		m.shRejections = reg.NewCounterVec("engine_shard_admission_rejections_total",
			"Admission rejections per federation shard, by reason.", "shard", "reason")
		m.shAged = reg.NewCounterVec("engine_shard_aged_requests_total",
			"Policy-deferred requests per federation shard.", "shard").With(label)
		m.depth = reg.NewGaugeVec("engine_shard_intake_queue_depth",
			"Queued submissions per federation shard.", "shard").With(label)
		return m
	}
	m.depth = reg.NewGauge("engine_intake_queue_depth", "Queued submissions.")
	return m
}

// observeRejection counts one admission rejection by reason, on the shared
// family and (when labeled) the per-shard one.
func (m *engineMetrics) observeRejection(reason string, n float64) {
	if !m.on() {
		return
	}
	m.rejections.With(reason).Add(n)
	if m.shRejections != nil {
		m.shRejections.With(m.label, reason).Add(n)
	}
}

// observeAged counts one first-time policy deferral.
func (m *engineMetrics) observeAged() {
	if !m.on() {
		return
	}
	m.aged.Inc()
	m.shAged.Inc() // nil-safe no-op when unlabeled
}

// observeRound records one pricing stage's wall clock.
func (m *engineMetrics) observeRound(seconds float64) {
	m.roundDur.Observe(seconds)
	m.shRoundDur.Observe(seconds) // nil-safe no-op when unlabeled
}

// observeEpoch records a counted epoch's duration and its lag behind the
// previous counted epoch.
func (m *engineMetrics) observeEpoch(start time.Time) {
	end := time.Now()
	m.epochDur.Observe(end.Sub(start).Seconds())
	m.shEpochDur.Observe(end.Sub(start).Seconds()) // nil-safe no-op when unlabeled
	m.mu.Lock()
	last := m.lastEpoch
	m.lastEpoch = end
	m.mu.Unlock()
	if !last.IsZero() {
		m.epochLag.Observe(start.Sub(last).Seconds())
	}
}

// registerFuncMetrics wires the sampled families — counters and gauges other
// subsystems already maintain as atomics — after the engine exists. Sampling
// happens at scrape time; none of these closures touch epochMu, so a scrape
// can never stall the epoch runner.
func (e *Engine) registerFuncMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("engine_epochs_total",
		"Counted epochs since boot.", func() float64 { return float64(e.epoch.Load()) })
	reg.NewCounterFunc("engine_submitted_total",
		"Submissions accepted into intake.", func() float64 { return float64(e.stSubmitted.Load()) })
	reg.NewCounterFunc("engine_applied_total",
		"Submissions applied successfully.", func() float64 { return float64(e.stApplied.Load()) })
	reg.NewCounterFunc("engine_matched_total",
		"Requests settled by matching rounds.", func() float64 { return float64(e.stMatched.Load()) })
	reg.NewCounterFunc("engine_failed_total",
		"Submissions rejected at apply time.", func() float64 { return float64(e.stFailed.Load()) })
	reg.NewGaugeFunc("engine_pending_submissions",
		"Submissions queued for the next epoch.", func() float64 { return float64(e.pending.Load()) })
	reg.NewGaugeFunc("arbiter_open_requests",
		"Requests filed but not yet matched.", func() float64 { return float64(e.platform.OpenRequestCount()) })
	reg.NewGaugeFunc("arbiter_unmet_wants",
		"Distinct wanted columns carrying unmet-demand signals.", func() float64 { return float64(e.platform.UnmetWantCount()) })

	// The bounded windows (internal/retain): no per-ticket labels — the point
	// is that these stay flat.
	reg.NewGaugeFunc("engine_events_held", "Events held in memory: the log tail on a durable engine, the whole log otherwise.",
		func() float64 { return float64(e.StatsLite().EventsHeld) })
	reg.NewGaugeFunc("engine_events_held_bytes", "Bytes the held events are indexed and kept in: 16 per event left in the WAL, plus the JSON of any held in memory.",
		func() float64 { return float64(e.StatsLite().EventsHeldBytes) })
	reg.NewGaugeFunc("engine_book_held_bytes", "Bytes the settlement book's unarchived entries are packed into.",
		func() float64 { return float64(e.book.HeldBytes()) })
	reg.NewGaugeFunc("engine_tickets_held", "Tickets held in memory: every non-terminal one plus the done window.",
		func() float64 { return float64(e.StatsLite().TicketsHeld) })
	reg.NewGaugeFunc("arbiter_history_held", "Completed transactions in the arbiter's history window.",
		func() float64 { return float64(e.StatsLite().HistoryHeld) })
	reg.NewGaugeFunc("ledger_audit_held", "Audit-chain entries in the ledger's verification window.",
		func() float64 { return float64(e.StatsLite().AuditHeld) })
	reg.NewCounterFunc("engine_log_readback_events_total", "Events served from the WAL because their cursor was older than the in-memory tail.",
		func() float64 { return float64(e.StatsLite().ReadBackEvents) })
	reg.NewCounterFunc("engine_tickets_retired_total", "Terminal tickets dropped from the ticket window.",
		func() float64 { return float64(e.StatsLite().TicketsRetired) })

	reg.NewCounterFunc("dod_builds_total",
		"Beam searches actually run by the DoD engine.",
		func() float64 { return float64(e.platform.DoDCacheStats().Builds) })
	reg.NewCounterFunc("dod_cache_hits_total",
		"Version-valid candidate-cache reuses.",
		func() float64 { return float64(e.platform.DoDCacheStats().Hits) })
	reg.NewCounterFunc("dod_cache_stale_total",
		"Cache lookups invalidated by a catalog change that touched the want's footprint.",
		func() float64 { return float64(e.platform.DoDCacheStats().Stale) })
	reg.NewCounterFunc("dod_cache_retained_total",
		"Cached candidate sets carried across a catalog change that could not have changed them.",
		func() float64 { return float64(e.platform.DoDCacheStats().Retained) })
	reg.NewCounterFunc("dod_cache_misses_total",
		"Cache lookups with no reusable entry.",
		func() float64 { return float64(e.platform.DoDCacheStats().Misses) })
	reg.NewCounterFunc("dod_cache_evictions_total",
		"Candidate-cache entries evicted to enforce the MaxEntries bound.",
		func() float64 { return float64(e.platform.DoDCacheStats().Evictions) })
	reg.NewGaugeFunc("dod_cache_entries",
		"Current candidate-cache population.",
		func() float64 { return float64(e.platform.DoDCacheStats().Entries) })
	reg.NewCounterFunc("dod_build_deadline_exceeded_total",
		"Build requests abandoned because they outran Config.BuildDeadline.",
		func() float64 { return float64(e.platform.DoDCacheStats().DeadlineExceeded) })
	reg.NewCounterFunc("dod_worker_panics_total",
		"Builds that panicked and were isolated to their want group.",
		func() float64 { return float64(e.platform.DoDCacheStats().Panics) })
	reg.NewCounterFunc("dod_subjoin_memo_hits_total",
		"Join prefixes reused from the per-build sub-join memo during candidate materialization.",
		func() float64 { return float64(e.platform.DoDCacheStats().SubJoinHits) })

	// Relation streaming counters sample the relation package's process-wide
	// atomics (same caveat as the market allocator counters below: several
	// engines in one process all report the process totals).
	reg.NewCounterFunc("relation_rows_streamed_total",
		"Rows drained through relation iterator pipelines into materialized results.",
		func() float64 {
			rows, _ := relation.StreamCounters()
			return float64(rows)
		})
	reg.NewCounterFunc("relation_materializations_total",
		"Iterator pipelines materialized into relations.",
		func() float64 {
			_, mats := relation.StreamCounters()
			return float64(mats)
		})

	reg.NewCounterFunc("engine_price_seconds_total",
		"Cumulative wall-clock time spent in the price stage of matching rounds.",
		func() float64 { return float64(e.stPriceNanos.Load()) / 1e9 })

	// The revenue-allocator counter samples the market package's
	// process-wide atomic (allocators are value types), so with several
	// engines in one process each registry reports the same process total.
	reg.NewCounterFunc("market_allocator_evals_total",
		"Characteristic-function evaluations run by revenue allocators.",
		func() float64 { return float64(market.AllocEvals()) })
}

// stampOpen stamps stage s now on the tickets of the given open requests
// (nil ids = every open request). Caller holds epochMu.
func (e *Engine) stampOpen(ids []string, s obs.Stage) {
	now := time.Now()
	if ids == nil {
		for _, ticket := range e.openReqs {
			e.m.tracer.Stamp(ticket, s, now)
		}
		return
	}
	for _, id := range ids {
		if ticket, ok := e.openReqs[id]; ok {
			e.m.tracer.Stamp(ticket, s, now)
		}
	}
}

// TicketTrace returns the stamped pipeline stages of one submission's span
// (nil when telemetry is off or the span is unknown/evicted).
func (e *Engine) TicketTrace(id string) map[obs.Stage]time.Time {
	if !e.m.on() {
		return nil
	}
	return e.m.tracer.Stages(id)
}
