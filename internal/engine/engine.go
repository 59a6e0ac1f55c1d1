package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// Config tunes the engine. The zero value is usable: no ticker (epochs run
// on TriggerEpoch or BatchThreshold only).
type Config struct {
	// EpochEvery, when > 0, runs an epoch on this period.
	EpochEvery time.Duration
	// BatchThreshold, when > 0, kicks an epoch early once this many
	// submissions are queued.
	BatchThreshold int
	// Persister, when non-nil, receives every event synchronously at append
	// time — the write-ahead hook (see internal/wal). Restored engines get
	// it attached after the recovered events are seeded, so replay never
	// re-persists.
	Persister Persister
	// BookArchive, when non-nil, is where checkpoints archive the settlement
	// book (wal.Boot attaches its directory's): the entries a checkpoint has
	// archived leave memory and whole-book readers stream them back from it.
	// Without one the whole book stays in memory.
	BookArchive ledger.Archive
	// Policy orders open requests into matching rounds (nil = FIFO arrival
	// order). See policy.go.
	Policy MatchPolicy
	// EpochMatchCap bounds how many open requests enter each matching
	// round; the rest are deferred (request-aged events) and re-ranked next
	// epoch. 0 = no cap.
	EpochMatchCap int
	// Admission configures intake admission control (quotas, per-epoch
	// request cap, queue-depth backpressure). Zero value = admit everything.
	Admission AdmissionConfig
	// BuildDeadline, when > 0, bounds every DoD candidate build: a want
	// group whose beam search outruns the deadline resolves to a failed
	// CandidateSet carrying context.DeadlineExceeded, the round skips it
	// like any failed build (the group retries next round) and moves on
	// rather than wedging. Builds run one after another inside the round,
	// so k wedged groups hold it for k deadlines. Candidates are derived
	// state, so the deadline never affects WAL replay. 0 disables the bound.
	BuildDeadline time.Duration
	// Metrics, when non-nil, receives the engine's telemetry: epoch/round
	// histograms, intake queue depth, admission rejections by reason,
	// candidate-cache counters, and the submit→settle request tracer.
	// Metrics are derived state — nothing here is logged,
	// snapshotted or replayed, so enabling telemetry never changes the
	// event stream (see doc.go, "Durability").
	Metrics *obs.Registry
	// ShardLabel, when non-empty, marks this engine as one arbiter shard of
	// a multi-shard market (internal/federation sets it, and only when there
	// is more than one shard) sharing a registry with its siblings: per-shard instruments carry it as a `shard` label (distinct
	// families, so the unlabeled aggregates keep their names), and the
	// engine skips the process-wide sampled families — several engines
	// registering the same closure would leave only the last one visible —
	// leaving them to the federation layer to register once, aggregated.
	// Purely observational: the label never reaches the event stream.
	ShardLabel string
}

// TicketStatus tracks a submission through its lifecycle.
type TicketStatus string

// Ticket statuses.
const (
	TicketQueued  TicketStatus = "queued"  // in the intake queue
	TicketApplied TicketStatus = "applied" // request filed, awaiting a match
	TicketDone    TicketStatus = "done"    // applied (shares/registers) or matched (requests)
	TicketFailed  TicketStatus = "failed"  // rejected at apply time
	// TicketRetired is what Engine.Ticket answers for a ticket that turned
	// terminal and has since left the ticket window: only ID and Status are
	// set, the outcome is in the event log. It is never stored.
	TicketRetired TicketStatus = "retired"
)

// SubmissionKind names what a ticket tracks.
type SubmissionKind string

// Submission kinds.
const (
	KindRegister SubmissionKind = "register"
	KindShare    SubmissionKind = "share"
	KindRequest  SubmissionKind = "request"
	// KindReport is a buyer's ex-post value report: it settles a pending
	// escrow-backed transaction in the epoch runner, so the settlement is
	// event-logged (value-reported) and survives replay like every other
	// mutation.
	KindReport SubmissionKind = "report"
)

// Ticket is the pollable state of one submission.
type Ticket struct {
	ID          string         `json:"id"`
	Kind        SubmissionKind `json:"kind"`
	Status      TicketStatus   `json:"status"`
	Participant string         `json:"participant"`
	Epoch       uint64         `json:"epoch,omitempty"`      // epoch that applied it
	RequestID   string         `json:"request_id,omitempty"` // requests only
	TxID        string         `json:"tx_id,omitempty"`      // matched requests only
	Price       float64        `json:"price,omitempty"`      // matched requests only
	// Priority is the request's priority class (requests only).
	Priority int `json:"priority,omitempty"`
	// MatchedEpoch is the epoch whose round settled the request; with Epoch
	// (the filing epoch) it measures how long the request waited.
	MatchedEpoch uint64 `json:"matched_epoch,omitempty"`
	Err          string `json:"error,omitempty"`
}

type submission struct {
	seq    uint64
	ticket string
	kind   SubmissionKind
	// register
	name  string
	funds float64
	// share
	seller string
	id     catalog.DatasetID
	rel    *relation.Relation
	meta   wtp.DatasetMeta
	terms  license.Terms
	// request
	want     dod.Want
	fn       *wtp.Function
	priority int
	cross    *core.RequestSpec // a cross-shard want's request (xtx.go)
	// report
	reportTx  string
	reported  float64
	trueValue float64
	// trace timestamps (zero unless telemetry is on; requests only)
	t0     time.Time // SubmitRequest* entry
	tAdmit time.Time // admission passed
}

// reqMeta is the engine-side policy metadata of one open request. FiledSeq
// is the request-filed event's seq; aged records whether the request's
// first policy deferral has been audit-logged (at most one request-aged
// record per request, so a capped backlog cannot amplify the WAL by
// O(backlog) every epoch). Guarded by epochMu.
type reqMeta struct {
	participant string
	priority    int
	filedEpoch  uint64
	filedSeq    int
	aged        bool
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Epochs       uint64 `json:"epochs"`
	Submitted    uint64 `json:"submitted"`
	Applied      uint64 `json:"applied"`
	Matched      uint64 `json:"matched"`
	Failed       uint64 `json:"failed"`
	OpenRequests int    `json:"open_requests"`
	Pending      int64  `json:"pending"`
	Events       int    `json:"events"`
	// Rejected counts admission-control rejections (quota / epoch cap) —
	// audit-logged, so the counter survives a restore.
	Rejected uint64 `json:"rejected,omitempty"`
	// Shed counts queue-depth backpressure rejections (transient overload
	// protection, not logged and not durable).
	Shed uint64 `json:"shed,omitempty"`
	// Aged counts requests the matching policy's per-epoch cap has
	// deferred at least once (one request-aged record each).
	Aged   uint64 `json:"aged,omitempty"`
	Policy string `json:"policy,omitempty"`
	// BuildMillis is cumulative wall-clock time spent building mashup
	// candidates (cache misses and stale entries). Builds run inside the
	// price stage, so PriceMillis includes this time. In-memory
	// observability only: like Shed it is not logged and not durable.
	BuildMillis float64 `json:"build_millis,omitempty"`
	// CacheHits / CacheStale / CacheRetained count, in the DoD engine's
	// versioned candidate store: reuses; lookups invalidated by a catalog
	// change that touched the want's footprint; and sets carried across a
	// catalog change that could not have changed them.
	CacheHits     uint64 `json:"cache_hits,omitempty"`
	CacheStale    uint64 `json:"cache_stale,omitempty"`
	CacheRetained uint64 `json:"cache_retained,omitempty"`
	// SubJoinHits counts join prefixes reused from the DoD engine's
	// per-build sub-join memo during candidate materialization.
	SubJoinHits uint64 `json:"subjoin_hits,omitempty"`
	// BuildDeadlineExceeded counts DoD build requests abandoned to
	// Config.BuildDeadline.
	BuildDeadlineExceeded uint64 `json:"build_deadline_exceeded,omitempty"`
	// PriceMillis is cumulative wall-clock time spent in the price stage of
	// matching rounds (candidate builds, mechanism and revenue allocation).
	// In-memory observability only, like BuildMillis.
	PriceMillis float64 `json:"price_millis,omitempty"`
	// AllocEvals counts characteristic-function evaluations, sampled from
	// the market package's process-wide counter (monotone; shared across
	// every engine in the process).
	AllocEvals    uint64 `json:"alloc_evals,omitempty"`
	LastPersisted int    `json:"last_persisted,omitempty"`
	PersistErr    string `json:"persist_error,omitempty"`
	// What the bounded windows (internal/retain) hold in memory right now —
	// Events counts the whole log, EventsHeld its tail, EventsHeldBytes the
	// bytes the tail is held in (16 B an event whose record the WAL holds,
	// plus the JSON of any held in memory), BookHeldBytes the packed
	// settlements no checkpoint has archived yet — and what left them: events
	// read back from the WAL by range for cursors behind the tail, retired
	// tickets. Flat lines
	// here show that memory follows live state.
	EventsHeld      int    `json:"events_held"`
	EventsHeldBytes int    `json:"events_held_bytes"`
	BookHeldBytes   int    `json:"book_held_bytes"`
	TicketsHeld     int    `json:"tickets_held"`
	HistoryHeld     int    `json:"history_held"`
	AuditHeld       int    `json:"audit_held"`
	ReadBackEvents  uint64 `json:"readback_events,omitempty"`
	TicketsRetired  uint64 `json:"tickets_retired,omitempty"`
	// CheckpointSeq is the seq the newest durable checkpoint covers (summed
	// across shards), which a restart replays from. Checkpoints are the
	// federation's to write, so federation.Market fills it in; 0 = none.
	CheckpointSeq int           `json:"checkpoint_seq,omitempty"`
	Uptime        time.Duration `json:"uptime"`
	MatchesPerSec float64       `json:"matches_per_sec"`
}

// Engine is the concurrent front end to a core.Platform: one intake queue,
// epoch-batched clearing, append-only event publishing. See the package
// documentation for the model.
type Engine struct {
	platform *core.Platform
	cfg      Config
	log      *EventLog
	book     *ledger.SettlementBook

	// appliedSeq is the highest submission number an epoch has drained:
	// every ticket up to it has left the queued state. Guarded by epochMu.
	appliedSeq uint64

	// tmu guards the intake: seq numbers the submissions, and queue holds
	// the ones no epoch has drained yet, in seq order, because one critical
	// section takes the seq, files the ticket and appends. pending is
	// len(queue), written under tmu and read without it.
	//
	// tickets holds every queued and applied ticket, by submission seq; done
	// the newest retain.Windows.Tickets terminal ones, packed, in the order
	// they turned terminal; retired counts the ones dropped off its front.
	// The held set is a pure function of the event stream: a replay holds
	// the same one. xlegs holds the seqs of the cross-shard sales whose home
	// commit is logged but whose remote legs are not yet applied, each with
	// its sale's ID: Ticket serves those as still applied (xtx.go).
	tmu     sync.Mutex
	seq     uint64
	queue   []submission
	pending atomic.Int64
	tickets map[uint64]*heldTicket
	done    ticketWindow
	retired uint64
	xlegs   map[uint64]string

	epochMu  sync.Mutex // serializes epochs; guards openReqs, reqMeta
	openReqs map[string]string
	reqMeta  map[string]*reqMeta // request ID -> policy metadata
	epoch    atomic.Uint64

	// Cross-shard sale state, guarded by epochMu and rebuilt from the log on
	// replay (see xtx.go): xwants holds the open cross-shard wants by ticket
	// seq (xwantsN their count, and xqueued the count of those still in the
	// intake queue, for readers without the lock), xtxHeld the
	// prepared sales awaiting a decision, xtxCommits the home commits since
	// the last checkpoint cut, and xtxApplied, per xid stream, the number of
	// the newest remote leg this shard logged.
	xwants     map[uint64]*CrossWant
	xwantsN    atomic.Int64
	xqueued    atomic.Int64
	xtxHeld    map[string]*xtxHold
	xtxCommits []XTxCommit
	xtxApplied map[string]uint64

	policy   MatchPolicy
	matchCap int
	adm      *admission     // nil when quota/cap admission is disabled
	m        *engineMetrics // telemetry sink; non-nil, disabled without cfg.Metrics

	kick    chan struct{}
	stop    chan struct{}
	loopWG  sync.WaitGroup
	started time.Time
	stopped atomic.Bool

	stSubmitted atomic.Uint64
	stApplied   atomic.Uint64
	stMatched   atomic.Uint64
	stFailed    atomic.Uint64
	stRejected  atomic.Uint64 // admission rejections (durable; see replay)
	stShed      atomic.Uint64 // queue-depth sheds (transient)
	stAged      atomic.Uint64 // policy deferrals (durable)
	// stXCommitted and stXAborted count this shard's home commits and
	// xtx-aborted records (durable).
	stXCommitted atomic.Uint64
	stXAborted   atomic.Uint64
	// stPriceNanos accumulates price-stage wall-clock time (transient, like
	// BuildMillis) — always, not only when telemetry is enabled.
	stPriceNanos atomic.Int64
	// stMatchedAtBoot is the replayed-match baseline after a Restore, so
	// MatchesPerSec reflects this process's rate, not history divided by a
	// fresh uptime.
	stMatchedAtBoot uint64
}

// New builds an engine over the platform. Call Start to run the background
// epoch loop, or drive epochs manually with TriggerEpoch. With
// cfg.Persister set, every event is written ahead to it; use Restore to
// boot from the persisted log after a restart.
func New(p *core.Platform, cfg Config) *Engine {
	e := newEngine(p, cfg, NewEventLog(), ledger.NewSettlementBook(cfg.BookArchive))
	if cfg.Persister != nil {
		e.log.SetPersister(cfg.Persister)
	}
	return e
}

// recordSale folds one tx-settled or value-reported event into the book —
// the single translation both the live append and replay use. An ex-post
// sale books twice: the delivery (tx-settled, ExPost=true, cuts not yet
// final, excluded from conservation) and the report settlement
// (value-reported, booked as final with the realized price and fan-out).
func (e *Engine) recordSale(ev *Event) {
	e.book.RecordSale(ledger.Settlement{
		TxID:       ev.TxID,
		Epoch:      ev.Epoch,
		Buyer:      ev.Participant,
		Price:      ledger.FromFloat(ev.Price),
		ArbiterCut: ledger.FromFloat(ev.ArbiterCut),
		ExPost:     ev.ExPost && ev.Kind != EventValueReported,
	}, ev.SellerCuts)
}

// newEngine wires an engine over a log and settlement book.
func newEngine(p *core.Platform, cfg Config, log *EventLog, book *ledger.SettlementBook) *Engine {
	policy := cfg.Policy
	if policy == nil {
		policy = PolicyFIFO{}
	}
	e := &Engine{
		platform:   p,
		cfg:        cfg,
		log:        log,
		book:       book,
		tickets:    map[uint64]*heldTicket{},
		xlegs:      map[uint64]string{},
		openReqs:   map[string]string{},
		reqMeta:    map[string]*reqMeta{},
		xwants:     map[uint64]*CrossWant{},
		xtxHeld:    map[string]*xtxHold{},
		xtxApplied: map[string]uint64{},
		policy:     policy,
		matchCap:   cfg.EpochMatchCap,
		adm:        newAdmission(cfg.Admission, cfg.EpochEvery),
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		started:    time.Now(),
	}
	e.m = newEngineMetrics(cfg.Metrics, cfg.ShardLabel)
	if cfg.BuildDeadline > 0 {
		p.SetBuildDeadline(cfg.BuildDeadline)
	}
	if cfg.Metrics != nil {
		if cfg.ShardLabel == "" {
			e.registerFuncMetrics(cfg.Metrics)
		}
		buildDur := cfg.Metrics.NewHistogram("dod_build_seconds",
			"Wall-clock duration of each candidate build (beam search + materialize).", obs.FastBuckets)
		p.SetBuildObserver(func(s float64) { buildDur.Observe(s) })
	}
	return e
}

// Start launches the background epoch loop (ticker- and threshold-driven).
func (e *Engine) Start() {
	e.loopWG.Add(1)
	go func() {
		defer e.loopWG.Done()
		var tick <-chan time.Time
		if e.cfg.EpochEvery > 0 {
			t := time.NewTicker(e.cfg.EpochEvery)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-e.stop:
				return
			case <-tick:
				e.TriggerEpoch()
			case <-e.kick:
				e.TriggerEpoch()
			}
		}
	}()
}

// Stop shuts the loop down, runs one final epoch to flush queued intake and
// closes the event log, which wakes its blocked readers.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	close(e.stop)
	e.loopWG.Wait()
	e.TriggerEpoch()
	e.log.Close()
}

// Log exposes the event log for its readers (/events, the -v tailer, the
// checkpoint watcher).
func (e *Engine) Log() *EventLog { return e.log }

// Settlements exposes the settlement book: every tx-settled and
// value-reported event is folded into it right after its append.
func (e *Engine) Settlements() *ledger.SettlementBook { return e.book }

// Ticket returns a snapshot of one submission's state; false for an ID never
// issued. A ticket this engine issued but no longer holds — it turned
// terminal and a window of later ones did so after it — answers TicketRetired.
func (e *Engine) Ticket(id string) (Ticket, bool) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	n := ticketSeq(id)
	if n == 0 || n > e.seq {
		return Ticket{}, false
	}
	t, ok := e.heldTicketLocked(n)
	if !ok {
		return Ticket{ID: id, Status: TicketRetired}, true
	}
	if _, paying := e.xlegs[n]; paying {
		// Committed at home, its remote legs in flight: it reads as it did
		// before the commit until the sellers hold their cuts.
		t.status, t.txID, t.price, t.matchedEpoch = heldApplied, "", 0, 0
	}
	return t.ticket(n), true
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.epochMu.Lock()
	open := len(e.openReqs) + len(e.xwants)
	e.epochMu.Unlock()
	up := time.Since(e.started)
	matched := e.stMatched.Load()
	mps := 0.0
	if up > 0 {
		mps = float64(matched-e.stMatchedAtBoot) / up.Seconds()
	}
	persisted, perr := e.log.Persisted()
	if _, _, _, rerr := e.log.Held(); perr == nil {
		perr = rerr // a failed read-back is the persister failing too
	}
	cache := e.platform.DoDCacheStats()
	st := e.StatsLite()
	st.Matched, st.OpenRequests = matched, open
	st.Policy = e.policy.Name()
	st.BuildMillis = cache.BuildMillis
	st.CacheHits, st.CacheStale, st.CacheRetained = cache.Hits, cache.Stale, cache.Retained
	st.SubJoinHits = cache.SubJoinHits
	st.BuildDeadlineExceeded = cache.DeadlineExceeded
	st.PriceMillis = float64(e.stPriceNanos.Load()) / 1e6
	st.AllocEvals = market.AllocEvals()
	st.LastPersisted = persisted
	st.Uptime, st.MatchesPerSec = up, mps
	if perr != nil {
		st.PersistErr = perr.Error()
	}
	return st
}

// StatsLite returns the counter and held-window slice of Stats without
// taking the epoch lock (it takes the log, ticket, arbiter and ledger locks
// in turn), so it is safe to sample at scrape time even while an epoch is
// mid-flight. OpenRequests comes from the arbiter's own registry rather than
// the engine's epoch-locked map; the derived fields (cache/allocator
// counters, rates) are left zero — the federation layer's aggregated
// /metrics funcs use this, the full Stats serves /engine/stats.
func (e *Engine) StatsLite() Stats {
	e.tmu.Lock()
	tickets, retired := len(e.tickets)+e.done.len(), e.retired
	e.tmu.Unlock()
	events, eventBytes, readBack, _ := e.log.Held()
	_, audit := e.platform.Arbiter.Ledger.AuditSize()
	return Stats{
		EventsHeld: events, EventsHeldBytes: eventBytes, ReadBackEvents: readBack, TicketsHeld: tickets, TicketsRetired: retired,
		HistoryHeld: e.platform.Arbiter.HistoryHeld(), AuditHeld: audit, BookHeldBytes: e.book.HeldBytes(),
		Epochs:       e.epoch.Load(),
		Submitted:    e.stSubmitted.Load(),
		Applied:      e.stApplied.Load(),
		Matched:      e.stMatched.Load(),
		Failed:       e.stFailed.Load(),
		OpenRequests: e.platform.OpenRequestCount() + e.CrossWantCount(),
		Pending:      e.pending.Load(),
		Events:       e.log.LastSeq(),
		Rejected:     e.stRejected.Load(),
		Shed:         e.stShed.Load(),
		Aged:         e.stAged.Load(),
	}
}

// SubmitRegister queues a participant registration and returns its ticket.
// Under queue-depth backpressure it returns an *OverloadError instead.
func (e *Engine) SubmitRegister(name string, funds float64) (string, error) {
	if err := e.admitDepth(name); err != nil {
		return "", err
	}
	return e.enqueue(submission{kind: KindRegister, name: name, funds: funds}, name), nil
}

// SubmitShare queues a seller's dataset share and returns its ticket.
// Under queue-depth backpressure it returns an *OverloadError instead.
func (e *Engine) SubmitShare(seller string, id catalog.DatasetID, rel *relation.Relation,
	meta wtp.DatasetMeta, terms license.Terms) (string, error) {
	if err := e.admitDepth(seller); err != nil {
		return "", err
	}
	return e.enqueue(submission{kind: KindShare, seller: seller, id: id, rel: rel,
		meta: meta, terms: terms}, seller), nil
}

// SubmitRequest queues a buyer's data need at normal priority and returns
// its ticket. The request stays open across epochs until a matching round
// satisfies it.
func (e *Engine) SubmitRequest(want dod.Want, f *wtp.Function) (string, error) {
	return e.SubmitRequestPriority(want, f, PriorityNormal)
}

// SubmitRequestPriority queues a buyer's data need under a priority class.
// Admission control runs before anything is queued or logged: a rejected
// request gets no ticket and returns a typed *OverloadError carrying a
// retry-after hint. Quota and epoch-cap rejections are audit-logged as
// aggregated request-rejected events — one per participant and reason per
// epoch window, flushed at epoch end — so the shedding path itself never
// writes to the WAL or contends on the epoch lock.
func (e *Engine) SubmitRequestPriority(want dod.Want, f *wtp.Function, priority int) (string, error) {
	return e.submitRequest(want, f, priority, nil)
}

// submitRequest admits and queues a request; cross is a cross-shard want's
// request (SubmitCrossShard), nil for one this shard clears.
func (e *Engine) submitRequest(want dod.Want, f *wtp.Function, priority int, cross *core.RequestSpec) (string, error) {
	if priority != int(int32(priority)) {
		return "", fmt.Errorf("engine: priority %d past int32", priority)
	}
	var t0 time.Time
	if e.m.on() {
		t0 = time.Now()
	}
	if err := e.admitDepth(f.Buyer); err != nil {
		return "", err
	}
	if e.adm != nil {
		if oerr := e.adm.admitRequest(f.Buyer); oerr != nil {
			// On ticker-less engines a rejection must kick the epoch loop
			// itself: it enqueues nothing, the refill the caller is told to
			// retry against only happens at a counted epoch, and nothing
			// else would ever reach one while every retry is shed. Ticker
			// engines get the flush epoch on the next tick instead — an
			// unconditional kick would let a hammering client drive epochs
			// (and their WAL records) at its retry rate.
			if e.cfg.EpochEvery <= 0 {
				select {
				case e.kick <- struct{}{}:
				default:
				}
			}
			return "", oerr
		}
	}
	s := submission{kind: KindRequest, want: want, fn: f, priority: priority, cross: cross, t0: t0}
	if e.m.on() {
		s.tAdmit = time.Now()
	}
	return e.enqueue(s, f.Buyer), nil
}

// SubmitReport queues a buyer's ex-post value report against a delivered
// transaction and returns its ticket. The settlement runs in the epoch
// runner and is published as a value-reported event, so on durable engines
// the report flows through the WAL like every other mutation. The ticket's
// participant is filled with the paying buyer at apply time (the report is
// addressed by transaction). Under queue-depth backpressure it returns an
// *OverloadError instead.
func (e *Engine) SubmitReport(txID string, reported, trueValue float64) (string, error) {
	if err := e.admitDepth(""); err != nil {
		return "", err
	}
	return e.enqueue(submission{kind: KindReport, reportTx: txID,
		reported: reported, trueValue: trueValue}, ""), nil
}

// admitDepth applies queue-depth backpressure to every submission kind.
func (e *Engine) admitDepth(participant string) error {
	max := e.cfg.Admission.MaxPending
	if max <= 0 || e.pending.Load() < int64(max) {
		return nil
	}
	e.stShed.Add(1)
	e.m.observeRejection(OverloadQueueDepth, 1)
	retry := e.cfg.EpochEvery
	if retry <= 0 {
		retry = defaultRetryAfter
	}
	return &OverloadError{Reason: OverloadQueueDepth, Participant: participant, RetryAfter: retry}
}

// enqueue numbers one submission, files its ticket and queues it, all under
// tmu, so the queue is in seq order; participant is what the ticket records.
func (e *Engine) enqueue(s submission, participant string) string {
	e.tmu.Lock()
	e.seq++
	s.seq = e.seq
	s.ticket = ticketID(s.seq)
	e.tickets[s.seq] = &heldTicket{kind: uint8(slices.Index(ticketKinds[:], s.kind)), status: heldQueued,
		participant: participant, priority: int32(s.priority)}
	e.queue = append(e.queue, s)
	if s.cross != nil {
		e.xqueued.Add(1)
	}
	n := e.pending.Add(1)
	e.m.depth.Add(1)
	e.tmu.Unlock()

	if e.m.on() {
		if s.kind == KindRequest {
			e.m.tracer.Begin(s.ticket, s.t0)
			e.m.tracer.Stamp(s.ticket, obs.StageAdmit, s.tAdmit)
			e.m.tracer.Stamp(s.ticket, obs.StageEnqueue, time.Now())
		}
	}
	e.stSubmitted.Add(1)
	if e.cfg.BatchThreshold > 0 && n >= int64(e.cfg.BatchThreshold) {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return s.ticket
}

// ticketID is the ticket of the n-th submission.
func ticketID(n uint64) string { return fmt.Sprintf("sub-%06d", n) }

// ticketSeq parses a ticket ID as ticketID writes it back to its seq; 0,
// which numbers no submission, for any other string.
func ticketSeq(id string) uint64 {
	digits, ok := strings.CutPrefix(id, "sub-")
	n, err := strconv.ParseUint(digits, 10, 64)
	if !ok || err != nil || len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return 0
	}
	return n
}

// drain swaps out the intake queue and returns it: every submission after
// appliedSeq up to the newest, in seq order. Caller holds epochMu.
func (e *Engine) drain() []submission {
	e.tmu.Lock()
	batch := e.queue
	e.queue = nil
	e.pending.Store(0)
	e.m.depth.Add(-float64(len(batch)))
	for i := 0; i < len(batch) && e.xqueued.Load() > 0; i++ {
		if batch[i].cross != nil {
			e.xqueued.Add(-1)
		}
	}
	e.tmu.Unlock()
	if n := len(batch); n > 0 {
		e.appliedSeq = batch[n-1].seq
	}
	return batch
}

// TriggerEpoch runs one epoch synchronously: drain intake, apply the batch,
// run a policy-ordered matching round if requests are open, publish events.
// Epochs with no work are skipped (returns the current epoch number and
// false). With an empty batch but open requests, the matching round still
// runs — an in-process embedder can add supply through direct platform
// calls, bypassing intake — but a round that matches nothing is not counted as an epoch and
// publishes no events (its unmet-demand increments are discarded too, so
// uncounted rounds leave no state the WAL could not replay). The one
// exception: pending admission-rejection audits force a flush-only counted
// epoch, because the quota refill they are waiting for only happens at a
// counted epoch end. Safe to call concurrently with intake and with the
// background loop.
func (e *Engine) TriggerEpoch() (uint64, bool) {
	if !e.m.on() {
		return e.triggerEpoch()
	}
	start := time.Now()
	ep, counted := e.triggerEpoch()
	if counted {
		e.m.observeEpoch(start)
	}
	return ep, counted
}

func (e *Engine) triggerEpoch() (uint64, bool) {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()

	batch := e.drain()
	if len(batch) == 0 {
		if len(e.openReqs) > 0 {
			// Tentative round at the prospective epoch number: only counted
			// (and published) when something matches.
			deferred, res, err := e.runRound(e.epoch.Load() + 1)
			if err == nil && len(res.Transactions) > 0 {
				ep := e.epoch.Add(1)
				e.log.Append(Event{Epoch: ep, Kind: EventEpochStart,
					Note: fmt.Sprintf("0 queued, %d open requests", len(e.openReqs))})
				e.emitAged(ep, deferred)
				e.platform.AddUnmet(res.UnmetCols)
				matched, unmet := e.publishRound(ep, res)
				e.endEpoch(ep, 0, matched, unmet, res.UnmetCols)
				return ep, true
			}
		}
		// No matchable work — but shed audits pending mean starved clients
		// are waiting on a quota refill only a counted epoch delivers.
		// Count a flush-only epoch so an idle market cannot deadlock a
		// participant whose bucket sits below one token forever.
		if e.adm != nil && e.adm.hasPendingRejections() {
			ep := e.epoch.Add(1)
			e.log.Append(Event{Epoch: ep, Kind: EventEpochStart,
				Note: fmt.Sprintf("0 queued, %d open requests, admission flush", len(e.openReqs))})
			e.endEpoch(ep, 0, 0, 0, nil)
			return ep, true
		}
		return e.epoch.Load(), false
	}

	ep := e.epoch.Add(1)
	e.log.Append(Event{Epoch: ep, Kind: EventEpochStart,
		Note: fmt.Sprintf("%d queued, %d open requests", len(batch), len(e.openReqs))})

	for _, s := range batch {
		e.apply(ep, s)
	}
	var matched, unmet int
	var unmetCols map[string]int
	if len(e.openReqs) > 0 {
		matched, unmet, unmetCols = e.clear(ep)
	}
	e.endEpoch(ep, len(batch), matched, unmet, unmetCols)
	return ep, true
}

// endEpoch flushes the window's aggregated admission rejections, publishes
// the epoch-end record (carrying the round's unmet-demand increments for
// replay) and refills the admission window. Rejection audit records and
// the counter bump happen only here, under the epoch lock, so checkpoints
// capture them as one cut and replay rebuilds the same counter.
func (e *Engine) endEpoch(ep uint64, applied, matched, unmet int, unmetCols map[string]int) {
	refill := 1.0
	if e.adm != nil {
		for _, r := range e.adm.takePendingRejections() {
			e.log.Append(Event{Epoch: ep, Kind: EventRequestRejected,
				Participant: r.participant, Note: r.reason, Count: r.count})
			e.stRejected.Add(r.count)
			e.m.observeRejection(r.reason, float64(r.count))
		}
		refill = e.adm.refillFraction()
	}
	if len(unmetCols) == 0 {
		unmetCols = nil
	}
	ev := Event{Epoch: ep, Kind: EventEpochEnd, UnmetColumns: unmetCols,
		Note: fmt.Sprintf("applied=%d matched=%d unmet=%d", applied, matched, unmet)}
	if e.adm != nil && refill != 1 {
		// Record partial refills so replay applies exactly the quanta the
		// live run earned (a full quantum is the omitted default).
		ev.QuotaRefill = refill
	}
	e.log.Append(ev)
	if e.adm != nil {
		e.adm.refill(refill)
	}
}

// selectRound ranks the open requests under the matching policy at the
// given epoch and splits them at the per-epoch cap. A nil ids slice means
// "every open request in arrival order" (the legacy fast path, used when no
// policy or cap is configured — the arbiter's own ordering is authoritative
// there). Caller holds epochMu.
func (e *Engine) selectRound(ep uint64) (ids []string, deferred []RequestCandidate) {
	if e.matchCap <= 0 {
		if _, fifo := e.policy.(PolicyFIFO); fifo {
			return nil, nil
		}
	}
	cands := make([]RequestCandidate, 0, len(e.openReqs))
	for reqID, ticket := range e.openReqs {
		c := RequestCandidate{RequestID: reqID, Ticket: ticket}
		if m := e.reqMeta[reqID]; m != nil {
			c.Participant = m.participant
			c.Priority, c.FiledEpoch, c.FiledSeq = m.priority, m.filedEpoch, m.filedSeq
		} else {
			// Pre-policy snapshots carry no meta; the ticket still knows.
			c.Participant = e.ticketParticipant(ticketSeq(ticket))
		}
		if ep > c.FiledEpoch {
			c.Age = ep - c.FiledEpoch
		}
		cands = append(cands, c)
	}
	selected, deferred := SelectCandidates(e.policy, cands, e.matchCap)
	ids = make([]string, len(selected))
	for i, c := range selected {
		ids[i] = c.RequestID
	}
	// Requests filed outside the engine (direct platform calls by an
	// in-process embedder) have no ticket or policy metadata; they ride
	// along in every round, outside the cap, so a policy configuration can
	// never strand them — exactly the pre-policy MatchRound behavior.
	for _, id := range e.platform.Arbiter.OpenRequests() {
		if _, tracked := e.openReqs[id]; !tracked {
			ids = append(ids, id)
		}
	}
	return ids, deferred
}

// emitAged publishes one request-aged record the first time the policy
// defers a request past a round. Later deferrals of the same request write
// nothing — the age keeps deriving from the request-filed record — so a
// long backlog costs at most one audit record per request over its
// lifetime, never O(backlog) per epoch.
func (e *Engine) emitAged(ep uint64, deferred []RequestCandidate) {
	for _, c := range deferred {
		m := e.reqMeta[c.RequestID]
		if m == nil || m.aged {
			continue
		}
		m.aged = true
		e.stAged.Add(1)
		e.m.observeAged()
		e.log.Append(Event{Epoch: ep, Kind: EventRequestAged, Ticket: c.Ticket,
			RequestID: c.RequestID, Participant: c.Participant, Age: c.Age,
			Note: fmt.Sprintf("deferred by %s policy", e.policy.Name())})
	}
}

// apply replays one submission against the platform, under epochMu.
func (e *Engine) apply(ep uint64, s submission) {
	fail := func(err error) {
		e.stFailed.Add(1)
		e.m.tracer.Drop(s.ticket)
		e.log.Append(Event{Epoch: ep, Kind: EventRejected, Ticket: s.ticket,
			Participant: e.ticketParticipant(s.seq), SubKind: s.kind,
			Priority: s.priority, Err: err.Error()})
		e.setTicket(s.seq, func(t *heldTicket) {
			t.status, t.epoch, t.err = heldFailed, ep, err.Error()
		})
	}
	switch s.kind {
	case KindRegister:
		if err := e.platform.RegisterParticipant(s.name, s.funds); err != nil {
			fail(err)
			return
		}
		e.stApplied.Add(1)
		e.log.Append(Event{Epoch: ep, Kind: EventRegistered, Ticket: s.ticket,
			Participant: s.name, Price: s.funds})
		e.setTicket(s.seq, func(t *heldTicket) { t.status, t.epoch = heldDone, ep })
	case KindShare:
		if err := e.platform.ShareDataset(s.seller, s.id, s.rel, s.meta, s.terms); err != nil {
			fail(err)
			return
		}
		e.stApplied.Add(1)
		meta := s.meta
		meta.Dataset = string(s.id)
		e.log.Append(Event{Epoch: ep, Kind: EventDatasetShared, Ticket: s.ticket,
			Participant: s.seller, Dataset: string(s.id),
			Payload: &Payload{Relation: s.rel, Meta: &meta,
				License: string(s.terms.Kind), TaxRate: s.terms.ExclusivityTaxRate}})
		e.setTicket(s.seq, func(t *heldTicket) { t.status, t.epoch = heldDone, ep })
	case KindRequest:
		// Canonical quota consumption happens here, at apply time, so the
		// bucket level is a pure function of the event stream (exactly one
		// request-filed or submission-rejected record follows) and replay
		// reproduces it; the submit-time reservation is released with it.
		if e.adm != nil {
			e.adm.commit(s.fn.Buyer)
		}
		if !e.platform.HasAccount(s.fn.Buyer) {
			fail(fmt.Errorf("engine: buyer %q is not registered", s.fn.Buyer))
			return
		}
		if s.cross != nil {
			if err := s.fn.Validate(); err != nil {
				fail(err)
				return
			}
			e.fileCrossShard(ep, s)
			return
		}
		reqID, err := e.platform.SubmitRequest(s.want, s.fn)
		if err != nil {
			fail(err)
			return
		}
		e.stApplied.Add(1)
		e.openReqs[reqID] = s.ticket
		// Payload is nil for non-serializable (code-package) tasks; such
		// requests are served while the process lives but do not survive a
		// replay (see doc.go, "Durability").
		var pl *Payload
		if spec, ok := core.EncodeRequest(s.want, s.fn); ok {
			pl = &Payload{Request: spec}
		}
		seq := e.log.Append(Event{Epoch: ep, Kind: EventRequestFiled, Ticket: s.ticket,
			Participant: s.fn.Buyer, RequestID: reqID, Priority: s.priority, Payload: pl})
		e.reqMeta[reqID] = &reqMeta{participant: s.fn.Buyer, priority: s.priority, filedEpoch: ep, filedSeq: seq}
		e.setTicket(s.seq, func(t *heldTicket) {
			t.status, t.epoch, t.requestID = heldApplied, ep, reqID
		})
	case KindReport:
		out, err := e.platform.SettleReport(s.reportTx, s.reported, s.trueValue)
		if err != nil {
			fail(err)
			return
		}
		e.stApplied.Add(1)
		if e.m.on() {
			e.m.tracer.StampTx(s.reportTx, obs.StageReport, time.Now())
		}
		ev := Event{Epoch: ep, Kind: EventValueReported, Ticket: s.ticket,
			Participant: out.Buyer, RequestID: out.RequestID, TxID: out.TxID,
			Price: out.Paid, ArbiterCut: out.ArbiterCut, SellerCuts: out.SellerCuts,
			Reported: s.reported, Audited: out.Audited, ExPost: true,
			Note: fmt.Sprintf("reported=%.2f paid=%.2f audited=%v", s.reported, out.Paid, out.Audited)}
		e.log.Append(ev)
		e.recordSale(&ev)
		e.setTicket(s.seq, func(t *heldTicket) {
			t.status, t.epoch, t.txID, t.price = heldDone, ep, out.TxID, out.Paid
			t.participant = out.Buyer
		})
	}
}

// runRound executes one prospective round: policy selection, then the price
// stage, which builds each want group's candidates through the versioned
// candidate cache and prices them. Build and price are one discrete
// matching round, so build time counts toward the round. Caller holds
// epochMu.
func (e *Engine) runRound(ep uint64) (deferred []RequestCandidate, res *arbiter.MatchResult, err error) {
	ids, deferred := e.selectRound(ep)
	priceStart := time.Now()
	// The per-group deadline (Config.BuildDeadline) is applied inside
	// dod.BuildCached, so the round needs no context of its own.
	res, err = e.platform.PriceRoundFor(context.Background(), ids, nil)
	priceDur := time.Since(priceStart)
	e.stPriceNanos.Add(priceDur.Nanoseconds())
	if e.m.on() {
		e.m.observeRound(priceDur.Seconds())
		e.stampOpen(ids, obs.StagePrice)
	}
	return deferred, res, err
}

// clear runs one policy-ordered matching round and publishes its outcome.
func (e *Engine) clear(ep uint64) (matched, unmet int, unmetCols map[string]int) {
	deferred, res, err := e.runRound(ep)
	if err != nil {
		e.log.Append(Event{Epoch: ep, Kind: EventRejected, Err: "match round: " + err.Error()})
		return 0, len(e.openReqs), nil
	}
	e.emitAged(ep, deferred)
	e.platform.AddUnmet(res.UnmetCols)
	matched, unmet = e.publishRound(ep, res)
	return matched, unmet, res.UnmetCols
}

// publishRound folds one MatchResult into tickets, stats and the event log.
func (e *Engine) publishRound(ep uint64, res *arbiter.MatchResult) (matched, unmet int) {
	for _, tx := range res.Transactions {
		ticket := e.openReqs[tx.RequestID]
		delete(e.openReqs, tx.RequestID)
		delete(e.reqMeta, tx.RequestID)
		e.stMatched.Add(1)
		matched++
		if e.m.on() {
			e.m.tracer.Finish(ticket, time.Now())
			e.m.tracer.AliasTx(tx.ID, ticket)
		}
		ev := Event{Epoch: ep, Kind: EventTxSettled, Ticket: ticket,
			Participant: tx.Buyer, RequestID: tx.RequestID, TxID: tx.ID,
			Price: tx.Price, ArbiterCut: tx.ArbiterCut, SellerCuts: tx.SellerCuts,
			Satisfaction: tx.Satisfaction, Datasets: tx.Datasets,
			ExPost: tx.ExPost, ExPostShares: tx.ExPostShares,
			Note: fmt.Sprintf("datasets=%v satisfaction=%.2f", tx.Datasets, tx.Satisfaction)}
		e.log.Append(ev)
		e.recordSale(&ev)
		e.setTicket(ticketSeq(ticket), func(t *heldTicket) {
			t.status, t.txID, t.price, t.matchedEpoch = heldDone, tx.ID, tx.Price, ep
		})
	}
	for _, reqID := range res.Unsatisfied {
		if ticket, ok := e.openReqs[reqID]; ok {
			unmet++
			e.log.Append(Event{Epoch: ep, Kind: EventRequestUnmet, Ticket: ticket, RequestID: reqID})
		}
	}
	return matched, unmet
}
