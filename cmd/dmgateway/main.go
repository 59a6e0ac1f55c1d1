// Command dmgateway serves the Data Market Management System over HTTP: the
// arbiter management platform as a network service (paper Fig. 2), driven
// by the concurrent market engine. It accepts submissions from many clients
// into an intake queue, batches them into epochs (ticker- or
// threshold-triggered), runs one arbiter matching round per epoch, and
// publishes every outcome on an append-only event log that clients poll via
// /events, /async/tickets/{id} and /settlements. A buyer whose ticket is done
// fetches the mashup it paid for with GET /history?tx=<tx_id>, while the
// sale's shard holds it in its history window (a cross-shard sale's is its
// buyer's home shard); a sale past the window, or one restored at boot from
// a snapshot or the WAL, answers 404 with the reason.
//
// There is one serving path: the gateway always boots a federated market
// (internal/federation) of -shards arbiter shards behind one dmms.Server.
// With N > 1 shards — each a full platform + engine + WAL lineage under
// <wal-dir>/shard-<i> — epochs run concurrently behind a router, and mashups
// spanning shards settle through the cross-shard coordinator's two-phase
// commit, whose every record is an event in the shards' own WALs. -shards 1
// (the default) is a federation of one: bare ticket and transaction IDs, the
// WAL directly under <wal-dir>, an idle coordinator — the classic
// single-arbiter gateway, byte-identical to previous releases' replay
// fingerprints and able to boot their WAL directories.
//
// With -wal-dir the event log is durable: every event is written ahead to a
// segmented, checksummed WAL (fsync policy via -fsync). The market checkpoints
// itself in the background whenever a shard's log has run a fixed number of
// events (internal/retain) past its last checkpoint, POST /snapshot writes one
// on demand and -snapshot-on-drain one during shutdown — all through the same
// federation.Market.SnapshotAll, which with -prune-on-snapshot also drops the
// WAL segments the previous checkpoint covers. A checkpoint appends the
// settlements sold since the previous one to the shard's settlement-book
// archive (settlements.archive beside the segments) and the snapshot carries
// only the archive's mark, so neither checkpoints nor boots decode the
// market's whole sales history; the ticket window follows the snapshot's JSON
// as binary records. Boot loads the newest snapshot whose archive prefix
// checks out and reads only the WAL segments it does not wholly cover,
// decoding and replaying just the events past it — the decode starts before
// the snapshot load, on the watermark the newest snapshot's name gives, and
// runs beside it. Its log line per shard gives the records read, the snapshot
// seq, the events replayed, the settlements archived, the time each boot phase
// took (snapshot load, platform restore, tail replay) and the decoder's own
// time, which overlaps them; before it comes one line per newer snapshot it
// had to skip and why.
//
// Usage:
//
//	dmgateway -addr :8080 -design posted-baseline -epoch 250ms -batch 64 \
//	          -shards 4 -build-deadline 2s -quota-rps 50 \
//	          -quota-override etl=500:1000 \
//	          -wal-dir /var/lib/dmms/wal -fsync epoch -snapshot-on-drain
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dmms"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/wal"
)

// quotaOverrideEntry is one parsed -quota-override value (rates still in
// requests/sec; translated per epoch once the ticker period is known).
type quotaOverrideEntry struct {
	rps   float64
	burst float64
}

// quotaOverrideFlag collects repeatable -quota-override name=rps[:burst]
// values.
type quotaOverrideFlag map[string]quotaOverrideEntry

func (q *quotaOverrideFlag) String() string {
	if q == nil || len(*q) == 0 {
		return ""
	}
	parts := make([]string, 0, len(*q))
	for name, o := range *q {
		parts = append(parts, fmt.Sprintf("%s=%g:%g", name, o.rps, o.burst))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (q *quotaOverrideFlag) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("quota-override %q: want name=rps[:burst]", v)
	}
	rpsStr, burstStr, hasBurst := strings.Cut(spec, ":")
	rps, err := strconv.ParseFloat(rpsStr, 64)
	if err != nil || !finiteNonNegative(rps) {
		// Only an explicit 0 means exempt; a negative or NaN rate is almost
		// certainly a typo that would silently unthrottle the participant.
		return fmt.Errorf("quota-override %q: rps must be finite and >= 0 (0 = exempt)", v)
	}
	var burst float64
	if hasBurst {
		if burst, err = strconv.ParseFloat(burstStr, 64); err != nil || !finiteNonNegative(burst) {
			return fmt.Errorf("quota-override %q: burst must be finite and >= 0", v)
		}
	}
	if *q == nil {
		*q = quotaOverrideFlag{}
	}
	(*q)[name] = quotaOverrideEntry{rps: rps, burst: burst}
	return nil
}

// toConfig translates the per-second override rates through the epoch
// period, exactly like the global -quota-rps flag: with a ticker the bucket
// refills per epoch, so rps x epoch-seconds; with manual epochs the rate
// acts per epoch directly. Burst stays absolute (tokens).
func (q quotaOverrideFlag) toConfig(epoch time.Duration) map[string]engine.QuotaOverride {
	if len(q) == 0 {
		return nil
	}
	out := make(map[string]engine.QuotaOverride, len(q))
	for name, o := range q {
		perEpoch := o.rps
		if epoch > 0 {
			perEpoch = o.rps * epoch.Seconds()
		}
		out[name] = engine.QuotaOverride{PerEpoch: perEpoch, Burst: o.burst}
	}
	return out
}

// checkLimits refuses a negative or non-finite value for any gateway limit
// in fs. The engine reads a negative limit as "off" (a queue-depth bound
// <= 0 admits everything, a negative quota disables quotas), so a typo would
// silently unthrottle the market. NaN fails every comparison, so a NaN quota
// is off too, and an infinite one reaches the token buckets, which snapshots
// cannot encode as JSON. -quota-override refuses the same values for the
// same reasons. -age-boost reads a negative or NaN boost as the default 1,
// and an infinite one scores a fresh request Inf x 0 = NaN, which leaves the
// aging policy's order arbitrary.
func checkLimits(fs *flag.FlagSet) error {
	for _, name := range []string{"quota-rps", "quota-burst", "admit-cap", "max-pending",
		"epoch-cap", "dod-cache-entries", "build-deadline", "age-boost"} {
		f := fs.Lookup(name)
		var why string
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			if v < 0 {
				why = "must be >= 0"
			}
		case float64:
			if !finiteNonNegative(v) {
				why = "must be finite and >= 0"
			}
		case time.Duration:
			if v < 0 {
				why = "must be >= 0"
			}
		}
		if why != "" {
			return fmt.Errorf("-%s %s: %s", name, f.Value, why)
		}
	}
	return nil
}

// finiteNonNegative reports whether v is a number in [0, +Inf).
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	design := flag.String("design", "posted-baseline", "market design label")
	shards := flag.Int("shards", 1, "arbiter shards: >1 federates the market — N catalogs, ledgers and WAL lineages with parallel epochs and cross-shard 2PC settlement; 1 = classic single-arbiter gateway")
	epoch := flag.Duration("epoch", 250*time.Millisecond, "epoch ticker period (0 = threshold/manual only)")
	batch := flag.Int("batch", 64, "pending submissions that trigger an early epoch (0 = off)")
	verbose := flag.Bool("verbose", false, "log epoch summaries from the event log")
	walDir := flag.String("wal-dir", "", "write-ahead log directory (empty = in-memory only, no durability)")
	fsync := flag.String("fsync", "epoch", "WAL fsync policy: always | epoch | off")
	segBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation size")
	snapOnDrain := flag.Bool("snapshot-on-drain", true, "write a snapshot after draining the engine on shutdown (needs -wal-dir)")
	pruneOnSnap := flag.Bool("prune-on-snapshot", true, "remove WAL segments fully covered by the previous checkpoint each time one is written (snapshot files beyond the newest two are retired either way)")
	policyName := flag.String("policy", "fifo", "matching policy: fifo | priority | aging")
	ageBoost := flag.Float64("age-boost", 1, "aging policy: score added per epoch an open request waits")
	epochCap := flag.Int("epoch-cap", 0, "max open requests admitted into each matching round (0 = all)")
	quotaRPS := flag.Float64("quota-rps", 0, "per-participant admitted requests per second (token bucket, enforced per epoch window; 0 = unlimited)")
	quotaBurst := flag.Float64("quota-burst", 0, "token-bucket burst capacity (0 = auto)")
	admitCap := flag.Int("admit-cap", 0, "global requests admitted per epoch window; excess get 429 (0 = unlimited)")
	maxPending := flag.Int("max-pending", 0, "queue-depth backpressure: reject submissions while this many are queued (0 = unlimited)")
	metrics := flag.Bool("metrics", true, "serve Prometheus telemetry on GET /metrics (engine, DoD, WAL, arbiter and HTTP families)")
	cacheEntries := flag.Int("dod-cache-entries", 0, "max cached DoD candidate sets; stale-first, cost-weighted eviction beyond it (0 = unlimited)")
	buildDeadline := flag.Duration("build-deadline", 0, "per-want-group DoD build deadline: a build outrunning it resolves as failed for the round (the group retries next epoch) instead of wedging the epoch (0 = unbounded)")
	var overrides quotaOverrideFlag
	flag.Var(&overrides, "quota-override", "per-participant quota override name=rps[:burst], overriding -quota-rps/-quota-burst for that participant (rps 0 = exempt); repeatable")
	flag.Parse()
	if err := checkLimits(flag.CommandLine); err != nil {
		log.Fatalf("dmgateway: %v", err)
	}

	policy, err := engine.ParsePolicy(*policyName, *ageBoost)
	if err != nil {
		log.Fatal(err)
	}
	// The token bucket refills per epoch, so a requests-per-second quota
	// translates through the epoch period; with manually driven epochs the
	// flag acts as a per-epoch quota directly.
	quotaPerEpoch := *quotaRPS
	if *epoch > 0 {
		quotaPerEpoch = *quotaRPS * epoch.Seconds()
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	cfg := engine.Config{
		EpochEvery:     *epoch,
		BatchThreshold: *batch,
		Policy:         policy,
		EpochMatchCap:  *epochCap,
		BuildDeadline:  *buildDeadline,
		Admission: engine.AdmissionConfig{
			QuotaPerEpoch:   quotaPerEpoch,
			QuotaBurst:      *quotaBurst,
			Overrides:       overrides.toConfig(*epoch),
			EpochRequestCap: *admitCap,
			MaxPending:      *maxPending,
		},
	}

	fcfg := federation.Config{
		Shards: *shards, Dir: *walDir, SegmentBytes: *segBytes, PruneOnSnapshot: *pruneOnSnap,
		Engine: cfg, Platform: core.Options{Design: *design}, Metrics: reg,
	}
	if *walDir != "" {
		if fcfg.Sync, err = wal.ParseSyncPolicy(*fsync); err != nil {
			log.Fatal(err)
		}
	}
	m, err := federation.Open(fcfg)
	if err != nil {
		log.Fatalf("dmgateway: boot: %v", err)
	}
	// Log lines name the shard only when there is more than one.
	shardTag := func(sh *federation.Shard) string {
		if m.NumShards() == 1 {
			return ""
		}
		return fmt.Sprintf("shard %d ", sh.Index)
	}
	for _, sh := range m.Shards() {
		if sh.WAL != nil {
			for _, skipped := range sh.Boot.SkippedSnapshots {
				log.Printf("dmgateway: %sWAL %s: skipped snapshot %s", shardTag(sh), sh.Dir, skipped)
			}
			b := sh.Boot
			log.Printf("dmgateway: %sWAL %s: read %d events (snapshot seq %d, replayed %d, %d settlements archived; load %s, restore %s, replay %s; decode %s alongside), fsync=%s",
				shardTag(sh), sh.Dir, b.Recovered, b.FromSnapshotSeq, b.Replayed, b.ArchivedSettlements,
				b.SnapshotLoad.Round(time.Millisecond), b.PlatformRestore.Round(time.Millisecond),
				b.TailReplay.Round(time.Millisecond), b.TailDecode.Round(time.Millisecond), fcfg.Sync)
		}
		if *cacheEntries > 0 {
			sh.Platform.SetDoDCacheConfig(dod.CacheConfig{MaxEntries: *cacheEntries})
		}
	}
	m.Start()

	// Verbose tailer: follow each shard's event log and surface epoch
	// summaries and settlements.
	if *verbose {
		for _, sh := range m.Shards() {
			// Tail from the boot-time head: replayed history was already
			// logged in its first life.
			evlog, cursor, tag := sh.Engine.Log(), sh.Engine.Log().LastSeq(), shardTag(sh)
			go func() {
				for {
					evs, open := evlog.WaitAfter(cursor)
					for _, ev := range evs {
						cursor = ev.Seq
						switch ev.Kind {
						case engine.EventEpochEnd:
							log.Printf("%sepoch %d: %s", tag, ev.Epoch, ev.Note)
						case engine.EventTxSettled:
							log.Printf("%sepoch %d: %s settled for %.2f (%s)", tag, ev.Epoch, ev.TxID, ev.Price, ev.Participant)
						}
					}
					if !open {
						return
					}
				}
			}()
		}
	}

	server := dmms.NewMarketServer(m)
	if reg != nil {
		server.SetMetrics(reg)
	}

	srv := &http.Server{Addr: *addr, Handler: server}
	done := make(chan struct{})
	exitCode := 0
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Stop accepting submissions first, then drain the engines — the
		// other order would hand out tickets no epoch will ever run.
		log.Print("dmgateway: shutting down HTTP")
		_ = srv.Shutdown(context.Background())
		log.Print("dmgateway: draining engine")
		m.Drain() // stops the background checkpointer too
		if *walDir != "" && *snapOnDrain {
			// Every shard is cut under the coordinator mutex, so no snapshot
			// ever captures a shard mid-2PC.
			writeDrain := func() error {
				cps, err := m.SnapshotAll()
				for _, cp := range cps {
					log.Printf("dmgateway: drain snapshot %s (seq %d)", cp.Path, cp.Seq)
				}
				return err
			}
			if err := writeDrain(); err != nil {
				// A refused checkpoint must not be silently lost: retry
				// once after a flush epoch and exit nonzero if the
				// checkpoint still cannot be written, so supervisors see
				// the failed drain. The retry covers transient snapshot
				// write failures; a wedged WAL stays wedged and reaches
				// the nonzero exit.
				log.Printf("dmgateway: drain snapshot refused: %v; retrying after a flush epoch", err)
				m.TriggerEpoch()
				if err := writeDrain(); err != nil {
					log.Printf("dmgateway: drain snapshot failed after retry: %v", err)
					exitCode = 1
				}
			}
		}
		m.Stop()
	}()

	log.Printf("dmgateway: design=%q shards=%d epoch=%v batch=%d policy=%s epoch-cap=%d quota-rps=%g on %s",
		m.Shards()[0].Platform.Design.Label, m.NumShards(), *epoch, *batch, policy.Name(), *epochCap, *quotaRPS, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}
