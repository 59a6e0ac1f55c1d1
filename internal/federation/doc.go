// Package federation shards the market itself, and is the gateway's only
// serving path: cmd/dmgateway always boots Open and serves one dmms.Server
// over the Market, whatever the shard count.
//
// A single arbiter — one platform, one engine, one WAL — serializes every
// epoch. Federation runs N of them side by side and puts a router in front:
//
//	                        ┌────────────────────────────┐
//	 SubmitRegister ───────▶│          router            │
//	 SubmitShare    ───────▶│  HomeOf(participant) hash  │
//	 SubmitRequest  ───────▶│  + column-coverage index   │
//	                        └───┬─────────┬──────────┬───┘
//	                            │         │          │ spans shards?
//	                       ┌────▼───┐ ┌───▼────┐ ┌───▼──────────┐
//	                       │shard 0 │ │shard 1 │ │ coordinator  │
//	                       │engine  │ │engine  │ │ queue + 2PC  │
//	                       │platform│ │platform│ └───┬──────┬───┘
//	                       │WAL dir │ │WAL dir │     │      │
//	                       └────────┘ └────────┘  coord.log │
//	                         parallel epochs         escrow legs as
//	                         per-shard snapshots     shard WAL events
//
//	// Each shard is a complete market: its own catalog slice, ledger, event
//	// log, WAL directory and snapshot lineage. Shards never talk to each
//	// other — only the coordinator touches more than one.
//
// # Sharding
//
// Participants hash to a home shard (FNV-1a of the name: a stable hash, so
// the home never moves across restarts). A seller's datasets live on the
// seller's home shard; a buyer's funds and requests live on the buyer's. Epochs run
// per shard, concurrently — the perf point of the whole layer: N shards
// drain, apply, build and match in parallel.
//
// # A federation of one
//
// `-shards 1` is not a second mode but the same path with N = 1, and it is
// exactly the single-arbiter gateway: same hash, same order, same bytes.
// This package owns the ID and directory scheme, so everything that differs
// by shard count is derived from it here and nowhere else:
//
//   - IDs (Market.ShardID): "s<i>:"-prefixed with several shards, bare at one;
//   - layout: <Dir>/shard-<i>/ + <Dir>/coord.log with several shards, the
//     WAL segments and snapshots directly in <Dir> at one — the layout of a
//     bare wal.Boot, so either boots the other's directory;
//   - telemetry: shard-labelled per-shard families plus summed aggregates
//     with several shards; at one, the engine and WAL register their own
//     unlabelled families and the federation adds only federation_*;
//   - the router is inert at one shard (nothing indexed on the share path,
//     nothing seeded at boot) and the coordinator never sees a want.
//
// Adopt wraps an already-built platform + engine pair as a one-shard
// in-memory market (tests, in-process probes).
//
// # Routing
//
// The router keeps a column-coverage index (column name → shards whose
// catalogs carry it). A want whose columns all resolve on the buyer's home
// shard is an ordinary home-shard request. A want with some column missing
// at home but present on another shard "spans" — no single shard can clear
// it — and goes to the cross-shard coordinator instead. Columns unknown
// everywhere stay home: local transforms may yet derive them, and the home
// shard's unmet-demand signals should see them.
//
// # Cross-shard settlement (escrow-style 2PC)
//
// The coordinator matches a spanning want on a scratch platform mirroring
// every shard's catalog (buyer funded with their real home balance), then
// settles the winning mashup with a two-phase commit whose participant legs
// are ordinary engine events in each shard's WAL, and whose decisions live
// in the coordinator's own log (coord.log, JSON lines, fsync per append):
//
//	begin(coord) → prepare: home shard escrows the price (xtx-prepared)
//	→ decide(coord) → commit home: escrow pays arbiter cut + local seller
//	cuts, remote cuts withdrawn (xtx-committed, role=home) → commit
//	remotes: each remote shard deposits its sellers' cuts (xtx-committed,
//	role=remote) → want-done(coord) → done(coord)
//
// The withdraw/deposit pair moves value between shard ledgers while the
// federation-wide total supply stays conserved — micro-unit exact, because
// both sides sum the identical per-cut conversions. Every leg is
// idempotent, so recovery re-drives decided transactions safely: undecided
// at boot → presumed abort (escrow refunded, want retried under a fresh
// xid); decided-commit → re-drive all legs; decided-abort → finish the
// abort. No coordinator state exists outside the two logs.
//
// # Snapshots
//
// Market.SnapshotAll is the one checkpoint path: POST /snapshot, the drain
// snapshot and the background checkpointer all call it. A started durable
// market runs one watcher per shard that sleeps in the shard log's WaitAfter
// until the log is retain.Windows.Checkpoint events past its last checkpoint
// — a count, never a timer — and then checkpoints every shard. The cuts are
// taken under the coordinator mutex, so no shard is ever captured mid-2PC;
// the engine additionally refuses to snapshot while any escrow is in flight,
// and the market while a round that died between a transaction's begin and
// done records leaves it in doubt (a snapshot does not carry the xtx
// bookkeeping, so recovery could apply a commit leg twice). Encoding, fsync
// and pruning run after the mutex is released, one checkpoint at a time.
// Each shard's lineage keeps its newest two snapshots; with
// Config.PruneOnSnapshot the WAL segments the older one covers go too. Drain
// stops the checkpointer before the caller's final snapshot.
//
// # Observability
//
// All shards share one registry: unlabeled histogram families aggregate
// across shards by construction, per-shard views carry a `shard` label
// under dedicated engine_shard_* names, and the federation registers the
// process-wide sampled families once, summed (see engine.Config.ShardLabel).
package federation
