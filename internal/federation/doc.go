// Package federation shards the market itself, and is the gateway's only
// serving path: cmd/dmgateway always boots Open and serves one dmms.Server
// over the Market, whatever the shard count.
//
// A single arbiter — one platform, one engine, one WAL — serializes every
// epoch. Federation runs N of them side by side and puts a router in front:
//
//	                       ┌────────────────────────────┐
//	SubmitRegister ───────▶│          router            │
//	SubmitShare    ───────▶│  HomeOf(participant) hash  │
//	SubmitRequest  ───────▶│  + column-coverage index   │
//	                       └───┬──────────────┬─────────┘
//	                           │ home shard   │ home shard, marked
//	                           │              │ cross-shard if it spans
//	                      ┌────▼───┐     ┌────▼───┐
//	                      │shard 0 │     │shard 1 │◀──── coordinator
//	                      │engine  │◀────│engine  │      (no state of its
//	                      │platform│ 2PC │platform│       own: matches and
//	                      │WAL dir │ legs│WAL dir │       drives the legs)
//	                      └────────┘     └────────┘
//	                        parallel epochs, per-shard snapshots; every
//	                        durable fact lives in a shard WAL
//
// Each shard is a complete market: its own catalog slice, ledger, event log,
// WAL directory and snapshot lineage. Shards never talk to each other — only
// the coordinator touches more than one.
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
//   - layout: <Dir>/shard-<i>/ and nothing else with several shards, the
//     WAL segments and snapshots directly in <Dir> at one — the layout of a
//     bare wal.Boot, so either boots the other's directory;
//   - telemetry: shard-labelled per-shard families plus summed aggregates
//     with several shards; at one, the engine and WAL register their own
//     unlabelled families and the federation adds only federation_*;
//   - the router is inert at one shard (nothing indexed or claimed on the
//     share path, nothing seeded at boot) and the coordinator never sees a
//     want.
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
// it. It is still filed on the buyer's home shard, with an ordinary ticket,
// but marked cross-shard: the shard's own rounds skip it and the coordinator
// clears it. Columns unknown everywhere stay home: local transforms may yet
// derive them, and the home shard's unmet-demand signals should see them.
//
// The router also keeps each dataset ID's owner (seeded at Open): a share
// of an ID that a different seller holds on another shard is refused, since
// cross-shard matching mirrors every catalog into one, where both could not
// live.
//
// # Cross-shard settlement (escrow-style 2PC)
//
// Each coordinator round matches every open cross-shard want on a scratch
// platform mirroring every shard's catalog (buyer funded with their real
// home balance), then settles the winning mashup with a two-phase commit
// whose every durable fact is an event in a shard's WAL (see
// internal/engine/xtx.go); the coordinator keeps nothing of its own:
//
//	prepare: the home shard escrows the price under an ID its arbiter's
//	counter draws (xtx-prepared, carrying the whole sale) → commit home,
//	the decision: escrow pays arbiter cut + local seller cuts, remote cuts
//	withdrawn, the want closes, the sale and its mashup enter the home
//	history window (xtx-committed, role=home, synced before anything else
//	happens) → commit remotes: each seller shard deposits its sellers' cuts
//	(xtx-committed, role=remote, under the ID in federation form,
//	"s0:tx-0005") → the want's ticket reads done (Engine.XTxLegsPaid; it
//	read applied until then, so no client told of the sale finds a seller
//	unpaid)
//
// The withdraw/deposit pair moves value between shard ledgers while the
// federation-wide total supply stays conserved — micro-unit exact, because
// both sides sum the identical per-cut conversions. Recovery is a pure
// function of the replayed shards: a prepare with no commit is aborted
// (presumed abort: escrow refunded, the want stays open and is matched again
// under a fresh ID), and each home commit since the shard's last checkpoint
// is re-driven on every seller shard, HomeOf(seller) over its remote cuts,
// that has not logged its leg — the legs of one home shard reach a seller
// shard in ID order, so each keeps the newest it logged per home shard.
// Open runs recovery after every shard has replayed, and a round runs it
// after a round that failed mid-sale, so a failed leg is resolved without a
// restart.
//
// A directory an earlier release wrote keeps its cross-shard decisions in
// a coord.log beside the shard directories. Open renames a finished one
// coord.log.retired; one with a pending want or an unfinished transaction
// is refused, naming them, before anything is written.
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
// and the market while a failed round leaves a sale in doubt (a cut forgets
// the home commits before it, which recovery re-drives from). Encoding, fsync
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
