// Package federation shards the market itself: N independent arbiter shards
// — each a full platform + engine + WAL lineage — run their epochs in
// parallel behind a router, and a coordinator clears the mashups no single
// shard can. See doc.go for the architecture.
package federation

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// Config configures a federated market.
type Config struct {
	// Shards is the number of arbiter shards (<= 1 means a single shard —
	// still a federation, but every participant homes to shard 0 and the
	// coordinator never sees a want).
	Shards int
	// Dir, when non-empty, makes the federation durable: each shard gets an
	// independent WAL + snapshot lineage under <Dir>/shard-<i>, and the
	// coordinator log lives at <Dir>/coord.log. A single shard keeps its
	// lineage directly in Dir and has no coordinator log — the layout of a
	// bare wal.Boot, so either can boot the other's directory. Empty = fully
	// in-memory.
	Dir string
	// Sync is the per-shard WAL fsync policy (default wal.SyncEpoch).
	Sync wal.SyncPolicy
	// SegmentBytes is the per-shard WAL segment size (0 = wal default).
	SegmentBytes int64
	// PruneOnSnapshot makes every checkpoint drop the WAL segments its
	// predecessor covers (the gateway's -prune-on-snapshot). Old snapshot
	// files are retired either way: a lineage keeps the newest two.
	PruneOnSnapshot bool
	// Engine is the per-shard engine template. Metrics and ShardLabel are
	// managed by the federation; everything else applies to each shard
	// verbatim (so EpochEvery > 0 gives every shard — and the coordinator —
	// a periodic epoch).
	Engine engine.Config
	// Platform is the per-shard market design. Every shard must share one
	// design: the coordinator prices cross-shard mashups on a scratch
	// platform built from these same options.
	Platform core.Options
	// Metrics, when non-nil, receives federation telemetry. With several
	// shards each shard's instruments carry a `shard` label
	// (engine.Config.ShardLabel) and the federation registers the
	// process-wide aggregates once; a single shard registers its own
	// unlabelled engine and WAL families, exactly like a bare engine.
	Metrics *obs.Registry

	// testCrash, when non-nil, is the crash-injection hook for the 2PC kill
	// matrix (in-package tests only): it fires at every named commit
	// boundary, including the ones inside recovery, and a non-nil return
	// abandons the attempt exactly where a process death would.
	testCrash func(point string) error
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Shard is one arbiter shard: a full platform + engine, plus its WAL when
// the federation is durable.
type Shard struct {
	Index    int
	Platform *core.Platform
	Engine   *engine.Engine
	WAL      *wal.Log       // nil when in-memory
	Dir      string         // "" when in-memory
	Boot     wal.BootResult // what recovery found (zero when in-memory)

	checkpointed atomic.Int64 // seq the newest checkpoint covers
}

// Market is the federation: the routing surface in front of the shards and
// the cross-shard coordinator behind them. A market of one shard is the
// classic single-arbiter gateway: bare IDs, one WAL lineage directly in Dir,
// an inert router and an idle coordinator.
type Market struct {
	cfg    Config
	shards []*Shard
	router *router
	coord  *coordinator

	// coordMu is the coordinator mutex: settle rounds, recovery and
	// SnapshotAll's cuts serialize on it, so a snapshot can never observe a
	// shard mid-2PC.
	coordMu sync.Mutex
	// ckMu keeps one checkpoint in flight: SnapshotAll holds it from the cuts
	// through the writes and prunes, which run after coordMu is released.
	ckMu      sync.Mutex
	ckWrites  *obs.Counter   // wal_checkpoints_total
	ckSeconds *obs.Histogram // wal_checkpoint_seconds

	stop    chan struct{}
	loopWG  sync.WaitGroup // the coordinator's round ticker
	ckWG    sync.WaitGroup // the checkpointer, one watcher per shard
	started atomic.Bool
}

func newMarket(cfg Config) *Market {
	return &Market{cfg: cfg, router: newRouter(cfg.Shards), stop: make(chan struct{})}
}

// Adopt wraps an existing platform + engine pair as a one-shard in-memory
// market (no snapshot lineage; a persister the engine already carries keeps
// working). The caller keeps the engine's lifecycle: Start and Stop it
// directly, or through the market.
func Adopt(p *core.Platform, eng *engine.Engine) *Market {
	m := newMarket(Config{Shards: 1})
	m.shards = []*Shard{{Platform: p, Engine: eng}}
	m.coord = newCoordinator(m, nil)
	return m
}

// Open boots a federated market: every shard recovers from its own WAL
// (durable mode), the coordinator resolves in-doubt cross-shard
// transactions from the logs, and the router is seeded from the recovered
// catalogs. Engines are not started; call Start.
func Open(cfg Config) (*Market, error) {
	cfg = cfg.withDefaults()
	m := newMarket(cfg)
	single := cfg.Shards == 1

	var coordRecs []coordRecord
	var clog *coordLog
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		// One shard can never span, so it has no coordinator log to keep.
		if !single {
			var err error
			clog, coordRecs, err = openCoordLog(cfg.Dir)
			if err != nil {
				return nil, err
			}
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		ecfg := cfg.Engine
		ecfg.Metrics = cfg.Metrics
		ecfg.Persister, ecfg.BookArchive = nil, nil // wal.Boot attaches the shard's own
		wopts := wal.Options{Dir: cfg.Dir, Policy: cfg.Sync, SegmentBytes: cfg.SegmentBytes}
		if single {
			// The only engine and WAL on the registry own the unlabelled
			// engine_*/dod_*/wal_* families themselves.
			wopts.Metrics = cfg.Metrics
		} else {
			// Sibling engines share the registry under a shard label; their
			// WALs skip wal-level metrics: N logs setting the same unlabeled
			// wal_segments gauge would flap it meaninglessly.
			ecfg.ShardLabel = strconv.Itoa(i)
			wopts.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", i))
		}
		sh := &Shard{Index: i}
		if cfg.Dir != "" {
			p, e, w, res, err := wal.Boot(cfg.Platform, ecfg, wopts)
			if err != nil {
				m.closeLogs()
				return nil, fmt.Errorf("federation: boot shard %d: %w", i, err)
			}
			sh.Platform, sh.Engine, sh.WAL, sh.Dir, sh.Boot = p, e, w, wopts.Dir, res
			sh.checkpointed.Store(int64(res.FromSnapshotSeq))
		} else {
			p, err := core.NewPlatform(cfg.Platform)
			if err != nil {
				return nil, err
			}
			sh.Platform, sh.Engine = p, engine.New(p, ecfg)
		}
		m.shards = append(m.shards, sh)
	}

	// Coordinator recovery runs after every shard has replayed its WAL (so
	// shard-side escrow state is current) and before engines start.
	m.coord = newCoordinator(m, clog)
	m.coord.crash = cfg.testCrash
	m.coordMu.Lock()
	err := m.coord.recover(coordRecs)
	m.coordMu.Unlock()
	if err != nil {
		m.closeLogs()
		return nil, err
	}

	m.router.seed(m.shards)
	registerFederationMetrics(cfg.Metrics, m)
	return m, nil
}

func (m *Market) closeLogs() {
	for _, sh := range m.shards {
		if sh.WAL != nil {
			_ = sh.WAL.Close()
		}
	}
	if m.coord != nil {
		_ = m.coord.log.close()
	}
}

// Start launches every shard's epoch machinery, the background checkpointer
// of a durable market, and the coordinator's own periodic round when the
// engine template has one.
func (m *Market) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range m.shards {
		sh.Engine.Start()
	}
	if every := retain.Sizes().Checkpoint; m.cfg.Dir != "" && every > 0 {
		for _, sh := range m.shards {
			m.ckWG.Add(1)
			go m.watchCheckpoints(sh, every)
		}
	}
	if every := m.cfg.Engine.EpochEvery; every > 0 && len(m.shards) > 1 {
		m.loopWG.Add(1)
		go func() {
			defer m.loopWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.CoordRound()
				}
			}
		}()
	}
}

// Drain stops the market without closing its logs: coordinator loop first,
// then every shard engine in parallel (each runs its final flush epoch), then
// the checkpointer, whose watchers end with their shards' logs. The quiescent
// market can still SnapshotAll; Stop releases the logs.
func (m *Market) Drain() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.loopWG.Wait()
	var wg sync.WaitGroup
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			sh.Engine.Stop()
		}(sh)
	}
	wg.Wait()
	m.ckWG.Wait()
}

// Stop shuts the federation down: Drain, then the logs.
func (m *Market) Stop() {
	m.Drain()
	m.closeLogs()
}

// Shards returns the shard handles (read-only use: tests, the gateway's
// per-shard event/settlement views).
func (m *Market) Shards() []*Shard { return m.shards }

// NumShards returns the shard count.
func (m *Market) NumShards() int { return len(m.shards) }

// ShardID puts a shard-local ticket or transaction ID in federation form:
// prefixed with its shard ("s2:sub-000017") so IDs stay unique when every
// shard numbers its own from 1, bare on a one-shard market, where the local
// ID already is.
func (m *Market) ShardID(shard int, local string) string {
	if len(m.shards) == 1 {
		return local
	}
	return shardTicket(shard, local)
}

// splitID is the inverse of ShardID; ok is false for IDs naming no shard of
// this market (coordinator tickets included).
func (m *Market) splitID(id string) (shard int, local string, ok bool) {
	if len(m.shards) == 1 {
		return 0, id, true
	}
	shard, local, ok = splitShardID(id)
	return shard, local, ok && shard < len(m.shards)
}

// --- routing surface ------------------------------------------------------

// SubmitRegister files a participant registration with its home shard.
func (m *Market) SubmitRegister(name string, funds float64) (string, error) {
	s := HomeOf(name, len(m.shards))
	tk, err := m.shards[s].Engine.SubmitRegister(name, funds)
	if err != nil {
		return "", err
	}
	return m.ShardID(s, tk), nil
}

// SubmitShare files a dataset share with the seller's home shard and
// optimistically indexes its columns for routing (the share applies at the
// shard's next epoch; until then wants for those columns simply wait).
func (m *Market) SubmitShare(seller string, id catalog.DatasetID, rel *relation.Relation,
	meta wtp.DatasetMeta, terms license.Terms) (string, error) {
	s := HomeOf(seller, len(m.shards))
	tk, err := m.shards[s].Engine.SubmitShare(seller, id, rel, meta, terms)
	if err != nil {
		return "", err
	}
	m.router.addRelation(s, rel)
	return m.ShardID(s, tk), nil
}

// SubmitRequest routes a buyer's want: to the home shard when its columns
// resolve there, to the cross-shard coordinator when they span shards.
func (m *Market) SubmitRequest(want dod.Want, f *wtp.Function) (string, error) {
	return m.SubmitRequestPriority(want, f, engine.PriorityNormal)
}

// SubmitRequestPriority is SubmitRequest with an explicit priority class.
func (m *Market) SubmitRequestPriority(want dod.Want, f *wtp.Function, priority int) (string, error) {
	home := HomeOf(f.Buyer, len(m.shards))
	if m.router.spans(want, home) {
		return m.coord.enqueue(want, f, priority)
	}
	tk, err := m.shards[home].Engine.SubmitRequestPriority(want, f, priority)
	if err != nil {
		return "", err
	}
	return m.ShardID(home, tk), nil
}

// SubmitReport files an ex-post value report for a shard-local transaction.
// Cross-shard transactions settle up-front at the delivered price (the
// escrowed 2PC pays out immediately), so "xtx-" IDs take no reports.
func (m *Market) SubmitReport(txID string, reported, trueValue float64) (string, error) {
	s, local, ok := m.splitID(txID)
	if !ok {
		if strings.HasPrefix(txID, "xtx-") {
			return "", fmt.Errorf("federation: cross-shard transaction %s settled up-front; no ex-post report", txID)
		}
		return "", fmt.Errorf("federation: unknown transaction %q", txID)
	}
	tk, err := m.shards[s].Engine.SubmitReport(local, reported, trueValue)
	if err != nil {
		return "", err
	}
	return m.ShardID(s, tk), nil
}

// Ticket resolves a federation ticket: coordinator tickets ("x:...") from
// the coordinator, shard tickets from their shard with IDs rewritten back to
// federation form.
func (m *Market) Ticket(id string) (engine.Ticket, bool) {
	if strings.HasPrefix(id, "x:") {
		return m.coord.ticket(id)
	}
	s, local, ok := m.splitID(id)
	if !ok {
		return engine.Ticket{}, false
	}
	t, ok := m.shards[s].Engine.Ticket(local)
	if !ok {
		return engine.Ticket{}, false
	}
	t.ID = m.ShardID(s, t.ID)
	if t.TxID != "" {
		t.TxID = m.ShardID(s, t.TxID)
	}
	return t, true
}

// TicketTrace returns the shard-local pipeline stages stamped on a shard
// ticket (nil for coordinator tickets, with telemetry off, or once the span
// is evicted).
func (m *Market) TicketTrace(id string) map[obs.Stage]time.Time {
	s, local, ok := m.splitID(id)
	if !ok {
		return nil
	}
	return m.shards[s].Engine.TicketTrace(local)
}

// Balance returns a participant's ledger balance on its home shard.
func (m *Market) Balance(name string) (ledger.Currency, bool) {
	l := m.shards[HomeOf(name, len(m.shards))].Platform.Arbiter.Ledger
	if !l.Exists(name) {
		return 0, false
	}
	return l.Balance(name), true
}

// TotalSupply sums every shard ledger's total supply — the federation-wide
// conservation quantity: escrow-style 2PC moves value between shards but
// never changes this sum outside registrations.
func (m *Market) TotalSupply() ledger.Currency {
	var total ledger.Currency
	for _, sh := range m.shards {
		total += sh.Platform.Arbiter.Ledger.TotalSupply()
	}
	return total
}

// --- epochs ---------------------------------------------------------------

// TriggerEpoch runs one epoch on every shard concurrently, then one
// coordinator round. Returns the max shard epoch and whether any shard
// counted an epoch or the coordinator settled a want.
func (m *Market) TriggerEpoch() (uint64, bool) {
	epochs := make([]uint64, len(m.shards))
	counted := make([]bool, len(m.shards))
	var wg sync.WaitGroup
	for i, sh := range m.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			epochs[i], counted[i] = sh.Engine.TriggerEpoch()
		}()
	}
	wg.Wait()
	return slices.Max(epochs), m.CoordRound() > 0 || slices.Contains(counted, true)
}

// CoordRound runs one coordinator round (all pending cross-shard wants get
// one settle attempt) under the coordinator mutex. Returns settles.
func (m *Market) CoordRound() int {
	m.coordMu.Lock()
	defer m.coordMu.Unlock()
	return m.coord.round()
}

// --- aggregate views ------------------------------------------------------

// Stats merges every shard's engine stats into one market-wide view:
// throughput counters sum; process-wide gauges (allocator counters, policy)
// come from shard 0; cross-shard settles count as matches.
// A one-shard market reports exactly its engine's own Stats.
func (m *Market) Stats() engine.Stats {
	per := m.ShardStats()
	agg := per[0]
	for _, s := range per[1:] {
		agg.Epochs += s.Epochs
		agg.Submitted += s.Submitted
		agg.Applied += s.Applied
		agg.Matched += s.Matched
		agg.Failed += s.Failed
		agg.OpenRequests += s.OpenRequests
		agg.Pending += s.Pending
		agg.Events += s.Events
		agg.Rejected += s.Rejected
		agg.Shed += s.Shed
		agg.Aged += s.Aged
		agg.BuildMillis += s.BuildMillis
		agg.CacheHits += s.CacheHits
		agg.CacheStale += s.CacheStale
		agg.CacheRetained += s.CacheRetained
		agg.SubJoinHits += s.SubJoinHits
		agg.BuildDeadlineExceeded += s.BuildDeadlineExceeded
		agg.PriceMillis += s.PriceMillis
		agg.MatchesPerSec += s.MatchesPerSec
		agg.LastPersisted += s.LastPersisted
		agg.EventsHeld += s.EventsHeld
		agg.EventsHeldBytes += s.EventsHeldBytes
		agg.BookHeldBytes += s.BookHeldBytes
		agg.TicketsHeld += s.TicketsHeld
		agg.HistoryHeld += s.HistoryHeld
		agg.AuditHeld += s.AuditHeld
		agg.ReadBackEvents += s.ReadBackEvents
		agg.TicketsRetired += s.TicketsRetired
		agg.CheckpointSeq += s.CheckpointSeq
		agg.Uptime = max(agg.Uptime, s.Uptime)
	}
	if len(per) > 1 {
		// Name the first shard whose persister is wedged.
		if i := slices.IndexFunc(per, func(s engine.Stats) bool { return s.PersistErr != "" }); i >= 0 {
			agg.PersistErr = fmt.Sprintf("shard %d: %s", i, per[i].PersistErr)
		}
	}
	settled, _ := m.coord.counters()
	agg.Matched += settled
	agg.OpenRequests += m.coord.pendingCount()
	if agg.Uptime > 0 {
		agg.MatchesPerSec += float64(settled) / agg.Uptime.Seconds()
	}
	return agg
}

// ShardStats returns each shard's own engine stats, index-aligned — the
// per-shard detail behind the aggregate /engine/stats view — with the seq its
// newest checkpoint covers.
func (m *Market) ShardStats() []engine.Stats {
	out := make([]engine.Stats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.Engine.Stats()
		out[i].CheckpointSeq = int(sh.checkpointed.Load())
	}
	return out
}

// CoordStats reports the coordinator's own counters.
func (m *Market) CoordStats() (pending int, settled, aborted uint64) {
	settled, aborted = m.coord.counters()
	return m.coord.pendingCount(), settled, aborted
}

// --- snapshots ------------------------------------------------------------

// ErrNoSnapshotLineage is SnapshotAll's answer on an in-memory market: with
// no Dir there is nowhere to keep a checkpoint.
var ErrNoSnapshotLineage = errors.New("federation: in-memory market has no snapshot lineage")

// Checkpoint names one shard's written snapshot and the last event seq it
// covers.
type Checkpoint struct {
	Path string
	Seq  int
}

// SnapshotAll checkpoints every shard: the one checkpoint path, behind POST
// /snapshot, the drain snapshot and the background checkpointer. Every
// shard's cut is taken under the coordinator mutex, so no shard can be
// mid-2PC in the resulting snapshot set and the set is mutually consistent
// with the coordinator log; archiving each shard's new settlements, encoding,
// fsync and pruning run after it is released (ckMu keeps one checkpoint in
// flight; see wal.WriteSnapshot for the order). With Config.PruneOnSnapshot
// each write also drops the WAL segments the previous checkpoint covers; old
// snapshot files are retired either way (each lineage keeps its newest two,
// the older one as the corruption fallback). Returns one checkpoint per
// shard, index-aligned.
func (m *Market) SnapshotAll() ([]Checkpoint, error) {
	if m.cfg.Dir == "" {
		return nil, ErrNoSnapshotLineage
	}
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	snaps, cuts, err := m.cutAll()
	if err != nil {
		return nil, err
	}
	cps := make([]Checkpoint, 0, len(m.shards))
	for i, sh := range m.shards {
		start := time.Now()
		p, err := wal.WriteSnapshot(sh.Dir, snaps[i])
		if err != nil {
			return cps, err
		}
		sh.checkpointed.Store(int64(snaps[i].TakenAtSeq))
		m.ckWrites.Inc()
		m.ckSeconds.Observe((cuts[i] + time.Since(start)).Seconds())
		cps = append(cps, Checkpoint{Path: p, Seq: snaps[i].TakenAtSeq})
		snaps[i] = nil
		if err := wal.PruneAfterSnapshot(sh.Dir, sh.WAL, m.cfg.PruneOnSnapshot); err != nil {
			return cps, err
		}
	}
	return cps, nil
}

// cutAll takes every shard's snapshot under the coordinator mutex and
// reports how long each cut took.
func (m *Market) cutAll() ([]*engine.SnapshotState, []time.Duration, error) {
	m.coordMu.Lock()
	defer m.coordMu.Unlock()
	if xid := m.coord.inDoubt; xid != "" {
		// A snapshot does not carry a shard's cross-shard bookkeeping, so a cut
		// between two commit legs would let recovery apply one of them twice.
		return nil, nil, fmt.Errorf("federation: checkpoint refused: cross-shard transaction %s is in doubt until a restart resolves it", xid)
	}
	snaps := make([]*engine.SnapshotState, len(m.shards))
	cuts := make([]time.Duration, len(m.shards))
	for i, sh := range m.shards {
		start := time.Now()
		snap, err := sh.Engine.Snapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("federation: snapshot shard %d: %w", sh.Index, err)
		}
		snaps[i], cuts[i] = snap, time.Since(start)
	}
	return snaps, cuts, nil
}

// watchCheckpoints is one shard's part of the background checkpointer: it
// sleeps in WaitFor until the shard's log runs every events past its newest
// checkpoint, then checkpoints the market — a count of events, never a timer.
// ckMu lets one checkpoint run at a time, and a shard another watcher's
// checkpoint already covered waits for its new mark. After a refused or
// failed checkpoint the next attempt comes every events later, not in a loop.
// It returns once the market stops or the shard's log closes.
func (m *Market) watchCheckpoints(sh *Shard, every int) {
	defer m.ckWG.Done()
	evlog := sh.Engine.Log()
	mark := int(sh.checkpointed.Load()) + every
	for {
		if evlog.LastSeq() < mark && !evlog.WaitFor(mark) {
			return
		}
		select {
		case <-m.stop:
			return
		default:
		}
		if next := int(sh.checkpointed.Load()) + every; next > mark {
			mark = next
			continue
		}
		head := evlog.LastSeq()
		_, _ = m.SnapshotAll() // a failure leaves checkpointed behind: the next mark retries
		mark = max(int(sh.checkpointed.Load()), head) + every
	}
}

// registerFederationMetrics registers the federation's own families and, on
// a multi-shard market, the process-wide sampled families the per-shard
// engines skip (ShardLabel gates them off: several shards registering one
// closure under the same name would shadow each other), aggregated across
// shards, under the exact names a single engine uses — dashboards keep
// working unchanged. (A single shard's engine registers them itself.) Uses
// StatsLite — the scrape-safe counter view — so a scrape never waits on a
// shard's in-flight epoch.
func registerFederationMetrics(reg *obs.Registry, m *Market) {
	if reg == nil {
		return
	}
	m.ckWrites = reg.NewCounter("wal_checkpoints_total", "Shard checkpoints written (all shards).")
	m.ckSeconds = reg.NewHistogram("wal_checkpoint_seconds",
		"Time to cut one shard's checkpoint under its epoch lock and write it durably.", obs.DefBuckets)
	reg.NewGaugeFunc("federation_shards", "Arbiter shards in this market.",
		func() float64 { return float64(len(m.shards)) })
	reg.NewGaugeFunc("federation_coordinator_pending_wants", "Cross-shard wants awaiting settlement.",
		func() float64 { return float64(m.coord.pendingCount()) })
	reg.NewCounterFunc("federation_xtx_committed_total", "Cross-shard transactions committed.",
		func() float64 { s, _ := m.coord.counters(); return float64(s) })
	reg.NewCounterFunc("federation_xtx_aborted_total", "Cross-shard attempts aborted.",
		func() float64 { _, a := m.coord.counters(); return float64(a) })
	if len(m.shards) == 1 {
		return
	}
	sum := func(f func(engine.Stats) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, sh := range m.shards {
				t += f(sh.Engine.StatsLite())
			}
			return t
		}
	}
	sumCache := func(f func(dod.CacheStats) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, sh := range m.shards {
				t += f(sh.Platform.DoDCacheStats())
			}
			return t
		}
	}
	reg.NewCounterFunc("engine_epochs_total", "Counted epochs since boot (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.Epochs) }))
	reg.NewCounterFunc("engine_submitted_total", "Submissions accepted into intake (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.Submitted) }))
	reg.NewCounterFunc("engine_applied_total", "Submissions applied successfully (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.Applied) }))
	reg.NewCounterFunc("engine_matched_total", "Requests settled by matching rounds (all shards + cross-shard).",
		func() float64 {
			var t float64
			for _, sh := range m.shards {
				t += float64(sh.Engine.StatsLite().Matched)
			}
			settled, _ := m.coord.counters()
			return t + float64(settled)
		})
	reg.NewCounterFunc("engine_failed_total", "Submissions rejected at apply time (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.Failed) }))
	reg.NewGaugeFunc("engine_pending_submissions", "Submissions queued for the next epoch (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.Pending) }))
	reg.NewGaugeFunc("arbiter_open_requests", "Requests filed but not yet matched (all shards + coordinator queue).",
		func() float64 {
			var t float64
			for _, sh := range m.shards {
				t += float64(sh.Platform.OpenRequestCount())
			}
			return t + float64(m.coord.pendingCount())
		})
	reg.NewGaugeFunc("engine_events_held", "Events held in memory (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.EventsHeld) }))
	reg.NewGaugeFunc("engine_events_held_bytes", "Bytes the held events are indexed and kept in: 16 per event left in the WAL, plus the JSON of any held in memory (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.EventsHeldBytes) }))
	reg.NewGaugeFunc("engine_book_held_bytes", "Bytes the settlement books' unarchived entries are packed into (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.BookHeldBytes) }))
	reg.NewGaugeFunc("engine_tickets_held", "Tickets held in memory (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.TicketsHeld) }))
	reg.NewGaugeFunc("arbiter_history_held", "Completed transactions in the arbiters' history windows (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.HistoryHeld) }))
	reg.NewGaugeFunc("ledger_audit_held", "Audit-chain entries in the ledgers' verification windows (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.AuditHeld) }))
	reg.NewCounterFunc("engine_log_readback_events_total", "Events served from the WAL to cursors older than the in-memory tail (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.ReadBackEvents) }))
	reg.NewCounterFunc("engine_tickets_retired_total", "Terminal tickets dropped from the ticket window (all shards).",
		sum(func(s engine.Stats) float64 { return float64(s.TicketsRetired) }))
	reg.NewGaugeFunc("arbiter_unmet_wants", "Distinct wanted columns carrying unmet-demand signals (all shards).",
		func() float64 {
			var t float64
			for _, sh := range m.shards {
				t += float64(sh.Platform.UnmetWantCount())
			}
			return t
		})
	reg.NewCounterFunc("dod_builds_total", "Beam searches run by the DoD engines (all shards).",
		sumCache(func(c dod.CacheStats) float64 { return float64(c.Builds) }))
	reg.NewCounterFunc("dod_cache_hits_total", "Version-valid candidate-cache reuses (all shards).",
		sumCache(func(c dod.CacheStats) float64 { return float64(c.Hits) }))
	reg.NewCounterFunc("dod_cache_stale_total", "Cache lookups invalidated by a catalog change that touched the want's footprint (all shards).",
		sumCache(func(c dod.CacheStats) float64 { return float64(c.Stale) }))
	reg.NewCounterFunc("dod_cache_retained_total", "Cached candidate sets carried across a catalog change that could not have changed them (all shards).",
		sumCache(func(c dod.CacheStats) float64 { return float64(c.Retained) }))
	reg.NewCounterFunc("dod_subjoin_memo_hits_total", "Sub-join memo reuses during candidate materialization (all shards).",
		sumCache(func(c dod.CacheStats) float64 { return float64(c.SubJoinHits) }))
}
