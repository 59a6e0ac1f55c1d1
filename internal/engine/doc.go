// Package engine is the concurrent market engine: the coordination layer
// between the wire protocol (internal/dmms) and the single-threaded clearing
// logic of the arbiter (internal/arbiter). The arbiter's MatchRound — the
// paper's Fig. 2 pipeline — is inherently a discrete matching round over the
// full set of open requests, so it cannot itself be parallelized across
// buyers; what can be made concurrent is everything around it:
//
//	many goroutines                 one epoch runner
//	---------------                 ----------------
//	SubmitRegister ─┐
//	SubmitShare    ─┼─> intake      drain -> apply -> PriceRound -> publish
//	SubmitRequest  ─┘   queue                         │
//	                                                  v
//	                                        build each want group through
//	                                        the versioned candidate cache
//
// # Intake
//
// Submissions (participant registrations, seller shares, buyer WTP-task
// requests) are appended to one intake queue. The lock that guards it also
// numbers each submission and files its ticket, in one critical section, so
// the queue is in sequence order and an epoch drains a prefix of the
// submissions no epoch has taken yet: never a later one before an earlier.
// Callers poll the ticket ID to follow the submission through its lifecycle:
//
//	queued -> applied -> done        (requests: applied = filed, done = matched)
//	queued -> done                   (registrations and shares)
//	queued -> failed                 (validation or apply error)
//
// The engine holds every non-terminal ticket plus a window of the newest
// terminal ones: a ticket retires once retain.Windows.Tickets later tickets
// have turned terminal (Ticket then answers status TicketRetired; dmms, 410
// Gone naming /events). Its outcome stays in the event log, the record. The window is counted in
// events of the stream, never in time, so a replay retires exactly the
// tickets the live run did and snapshots carry only the held ones. The
// window keys each ticket by its submission number and holds it flat — kind
// and status as small codes, no ID string (the number derives it) — and
// converts to and from the public Ticket only at Ticket, Snapshot and
// Restore, so the wire form and the snapshot's ticket records are unchanged.
//
// # Epochs
//
// An epoch is one batched coordination step. It is triggered by a ticker
// (Config.EpochEvery), by intake pressure (Config.BatchThreshold pending
// submissions), or manually (TriggerEpoch). Each epoch the runner drains the
// intake queue, replays the batch in sequence order against the platform
// (registrations, dataset shares, request filings), and — when open requests
// exist — runs exactly one arbiter MatchRound. Requests that stay
// unsatisfied remain open and are retried automatically in later epochs, so
// a buyer whose need precedes the matching supply is served as soon as a
// seller shows up. Epochs with nothing to do are skipped.
//
// # Candidate cache
//
// Building a want group's mashup and pricing it are one discrete matching
// round: PriceRound builds each group's candidates inline, in the epoch.
// Builds go through the DoD engine's versioned candidate cache (internal/dod):
// every ShareDataset and RegisterTransform bumps a catalog version, each
// cached set is stamped with the version it is valid at, and the round
// re-validates at settlement time — a set built before a share it could have
// used can never settle; the round rebuilds instead. A bump stales only the
// sets it could have changed: the mutation names the dataset it touches, and a
// cached set for whose want that dataset provides nothing, before and after
// (the beam search's own admission test), is re-stamped to the new version
// under the mutation's exclusive lock. The engine is untouched by this — it
// only ever asks whether a set's stamp is current. The rule assumes every
// dataset in a beam state is a provider; a search that joined through
// bridge-only datasets would need the footprint widened to the join-reachable
// ones. Candidates are derived state: they are never logged or snapshotted,
// and a version-valid cached set — fresh or carried forward — is identical to
// what a fresh build would produce (Build is deterministic and a function of
// the want's footprint datasets), so none of this is visible to replay.
// Config.BuildDeadline bounds each build; since builds run one after another
// inside the round, k wedged groups hold it for k deadlines. Stats surfaces
// BuildMillis (cumulative build time — part of the round, so PriceMillis
// includes it), CacheHits, CacheStale and CacheRetained.
//
// # Event log
//
// Every state change is published to an append-only, totally ordered event
// log instead of being returned to one caller. Readers (/events, the -v
// tailer, the checkpoint watcher) consume it at their own pace via
// cursor-based reads; nothing is ever dropped. Append encodes each event
// once, to the JSON /events serves, without the payload that only the
// persister gets, and the record the WAL writes is those bytes with the
// payload spliced in before the closing brace. On a durable engine the log
// therefore keeps no copy: its window of the newest retain.Windows.EventTail
// events is 16 B an event, where each record sits in the WAL, and readers
// get the JSON back by a checked positional read of it (16k is how far
// readers trail, not a memory budget). Older chunks are released, and a
// cursor behind the window is served by reading the gap back from the WAL by
// range. Both reads run outside every engine and log lock, so a reader
// cannot stall an epoch, and join without a gap or a duplicate. The stream a
// cursor sees is the same bytes either way. With no persister, one that
// cannot read back, or a wedged one, the log holds the JSON itself, in a
// byte slab per chunk, and nothing leaves memory; a restore holds nothing
// until new events arrive. Event schema (JSON over the wire):
//
//	seq          int     total order, 1-based, no gaps
//	epoch        uint64  epoch that produced the event
//	kind         string  epoch-start | participant-registered | dataset-shared |
//	                     request-filed | request-unmet | request-rejected |
//	                     request-aged | tx-settled | value-reported |
//	                     submission-rejected | epoch-end
//	ticket       string  submission ticket, when the event advances one
//	participant  string  buyer or seller name
//	dataset      string  dataset ID (dataset-shared)
//	request_id   string  arbiter request ID (request-filed onward)
//	tx_id        string  transaction ID (tx-settled)
//	price        float64 clearing price (tx-settled)
//	arbiter_cut  float64 arbiter fee (tx-settled)
//	seller_cuts  map     seller -> revenue share (tx-settled)
//	satisfaction float64 WTP satisfaction achieved (tx-settled)
//	datasets     []str   datasets in the sold mashup (tx-settled)
//	ex_post      bool    settlement is escrow-based, priced on report
//	ex_post_shares map  owner -> revenue fraction fixed at delivery (tx-settled)
//	reported     float64 buyer's reported realized value (value-reported)
//	audited      bool    arbiter verified the report (value-reported)
//	sub_kind     string  submission kind (submission-rejected)
//	priority     int     priority class (request-filed, submission-rejected)
//	age          uint64  epochs waited when deferred (request-aged)
//	count        uint64  sheds covered by an aggregate (request-rejected)
//	unmet_columns map    column -> demand increments this round (epoch-end)
//	error        string  rejection reason (submission-rejected)
//	note         string  human-readable detail; shed reason (request-rejected)
//	payload      object  full submission body (dataset-shared, request-filed);
//	                     in the WAL record only, never served
//
// Every tx-settled and value-reported event is folded into a
// ledger.SettlementBook right after its append, under the epoch lock. The
// book checks conservation (price == arbiter cut + seller cuts) per
// transaction — the invariant the race tests assert across epochs — and
// keeps running totals, so the check is O(1). On a durable engine
// (Config.BookArchive, which wal.Boot attaches) the book holds only the
// entries past its newest checkpoint: each checkpoint appends the new ones to
// the WAL directory's book archive, and whole-book readers take a BookCut —
// entries and totals from one instant — and stream the archived prefix back
// before the entries in memory. Those it holds packed in one byte log
// (~35–40 B a one-seller sale; Stats.BookHeldBytes), built from the event's
// own cuts with no map in between, and decodes back to ledger.Settlement only
// when a reader or a checkpoint asks.
//
// # Admission control and matching policy
//
// Intake is guarded by an AdmissionController (Config.Admission):
// per-participant token-bucket quotas and a global per-epoch request cap
// reject a submission *before* it gets a ticket or an event-log record,
// returning a typed *OverloadError with a retry-after hint (dmms maps it to
// HTTP 429 + Retry-After); queue-depth backpressure sheds any submission
// kind while intake is saturated. Quota and cap rejections are audit-logged
// as aggregated request-rejected events — one per participant and reason
// per epoch window, flushed at epoch end, so a rejection flood costs one
// record per window rather than one per request; buckets refill at every
// counted epoch end, so the whole admission state is a pure function of the
// event stream and survives replay.
//
// Open requests enter each matching round in the order a MatchPolicy
// (Config.Policy) assigns: FIFO (arrival), priority classes (the
// X-DMMS-Priority wire header), or starvation aging, where every epoch
// waited adds Config-tunable score so no class can starve another forever.
// Config.EpochMatchCap bounds how many requests a round may admit; a
// deferred request gets one request-aged event on its first deferral and is
// re-ranked every epoch. The
// property-based fairness harness (policy_prop_test.go) pins the invariants:
// bounded waits under aging, quota accounting, conservation under flood,
// and byte-identical policy decisions across crash/replay.
//
// # Durability
//
// The log carries enough to be the system of record: share and request
// events embed their full submission payload, so a write-ahead copy of the
// log (internal/wal, attached via Config.Persister) is sufficient to rebuild
// everything. The replay invariant: applying the events of any log prefix,
// in order, to a fresh platform (Restore) reproduces exactly the state the
// original process had when it appended the prefix's last record — ledger
// balances to the micro-unit, catalog and index contents, open requests
// under their original IDs, tickets, the settlement book, and the request/
// transaction ID counter. Replay applies logged outcomes; it never re-runs
// matching, so recovery is deterministic regardless of design or mechanism.
// Restore consumes the recovered log as a stream of batches (wal.Boot feeds
// it one segment at a time): each is replayed, its settlements folded into
// the book, and none is held or re-encoded — older cursors still resume
// without gaps, from the WAL. Snapshot checkpoints (Engine.Snapshot +
// core.PlatformSnapshot) let Restore start from a watermark instead of seq
// 1, and wal.Boot then decodes only the segments past it. Snapshot is only
// the cut — taken under the epoch lock, the settlement book shared rather than
// copied — and its caller writes it after the lock is released: wal.WriteSnapshot
// archives the book's new entries and puts only the archive's mark in the
// snapshot, so neither a checkpoint nor a boot decodes every sale ever made,
// and writes the SnapshotState as JSON except for its ticket window, which
// follows as binary records. wal.Boot decodes the WAL tail while it loads the
// snapshot and rebuilds the platform, so Restore's source hands it segments
// that are already decoded.
// A durable federation.Market checkpoints every shard in the background each
// retain.Windows.Checkpoint events, so a restart replays a bounded suffix,
// not the market's life. Memory follows live state, not lifetime: besides the
// log tail and the ticket window, the arbiter forgets a request when it
// settles and keeps a window of recent transactions, and the ledger a window
// of its audit chain (sized in internal/retain; Stats.EventsHeld and the
// fields after it, the engine_*_held gauges). Each window is a pure
// function of the event stream, so live runs and replays agree byte for
// byte, and a checkpoint carries only what is retained plus counts of what
// is not. The settlement book keeps only what the last checkpoint has not
// archived — which depends on when checkpoints ran, but what a reader sees
// does not: the archive serves the rest. Ex-post settlement is durable end to end: deliveries fix
// their revenue fractions on the tx-settled record, SubmitReport settles the
// escrow through a value-reported record, snapshots carry outstanding
// escrows (and the audit RNG), and replay repeats the logged transfers
// without re-running the audit. The only non-durable submissions are
// requests whose WTP task is an in-process code package (wtp.FuncTask) —
// they cannot be serialized and are failed on replay.
//
// # Federation
//
// One engine is one arbiter: a single catalog, epoch runner and WAL lineage.
// internal/federation composes N of them into a sharded market — the engine
// itself needs no changes beyond the cross-shard escrow events
// (xtx-prepared/committed/aborted) and the XTxInFlight snapshot guard:
//
//	                   federation.Market
//	SubmitX ──> router (participant hash + column index)
//	            │ local want          │ spanning want
//	            v                     v
//	     shard i (engine +     coordinator (2PC over the
//	     platform + WAL,       shard event logs; its own
//	     own epochs)           coord.log for decisions)
//
// Each shard runs the full pipeline above concurrently with the others;
// wants whose columns live on one shard never pay any coordination cost,
// and cross-shard mashups settle through an escrow-style two-phase commit
// whose legs are ordinary WAL events, so recovery resolves in-doubt
// transactions from the logs alone. With one shard the federation is a
// pass-through and replay stays byte-identical to a bare engine.
//
// # Telemetry
//
// With Config.Metrics set to an obs.Registry, the engine instruments itself:
// epoch duration and lag, intake queue depth, admission rejections by
// reason, build panic isolations, candidate-cache counters, and a
// submit→settle tracer that stamps each request ticket through the pipeline
// stages (submit → admit → enqueue → price → settle → report; builds fall
// inside price), exposed as per-stage and end-to-end latency histograms
// plus per-ticket traces (TicketTrace, the dmms ticket view).
//
// Metrics are *derived state*, strictly observational: no instrument writes
// to the event log, the WAL, or any replayed structure, and no scrape
// callback takes the epoch lock. Enabling telemetry therefore changes no
// event, ID, balance, or replay outcome — the crash/replay matrix runs with
// a live registry and asserts byte-identical state. Registries are rebuilt
// from scratch on restart like any other derived view; counters restart at
// the recovered totals, histograms restart empty.
package engine
