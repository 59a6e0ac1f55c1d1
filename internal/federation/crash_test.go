package federation

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/retain"
	"repro/internal/wal"
)

// This file is the federation's crash harness: the 2PC kill matrix (a
// simulated process death at every commit boundary, including boundaries
// inside recovery itself), the same failures resolved without a restart, and
// the multi-shard restart fingerprints. Durable runs use SyncAlways, save the
// kill matrix's -fsync epoch rows, so the shard WALs hold exactly what the
// live process saw — the interesting torn-prefix story is the single-engine
// WAL suite's job; here the variable is where the 2PC stopped.

// fedConfig is the durable 2-shard config every crash test uses.
func fedConfig(dir string, shards int) Config {
	return Config{
		Shards:   shards,
		Dir:      dir,
		Sync:     wal.SyncAlways,
		Platform: core.Options{Design: testDesign},
	}
}

// accountBalances snapshots the balances the 2PC moves money between.
func accountBalances(m *Market, fx crossShardFixture) map[string]ledger.Currency {
	out := map[string]ledger.Currency{}
	for _, name := range []string{fx.buyer, fx.sellerA, fx.sellerB} {
		bal, _ := m.Balance(name)
		out[name] = bal
	}
	// The arbiter's cut lands on the buyer's home shard (shard 0).
	out["arbiter@0"] = m.Shards()[0].Platform.Arbiter.Ledger.Balance(arbiter.ArbiterAccount)
	return out
}

// runBaseline drives the canonical cross-shard settle to completion with no
// crash and returns its final balances, per-shard fingerprints and supply.
func runBaseline(t *testing.T) (map[string]ledger.Currency, [][]byte, ledger.Currency) {
	t.Helper()
	m, err := Open(fedConfig(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	tk := fx.submitSpanning(t, m)
	if n := m.CoordRound(); n != 1 {
		t.Fatalf("baseline round settled %d wants, want 1", n)
	}
	if got, _ := m.Ticket(tk); got.Status != engine.TicketDone || got.TxID != "s0:tx-0001" {
		t.Fatalf("baseline ticket: %+v", got)
	}
	bals := accountBalances(m, fx)
	supply := m.TotalSupply()
	// Under tinyWindows (the only way a log this short is trimmed) the
	// fixture must cross the ticket and audit windows as well, on both shards.
	if st := m.Stats(); st.EventsHeld < st.Events {
		if st.TicketsRetired == 0 || st.AuditHeld != 2*2 {
			t.Fatalf("fixture crosses the log tail but not the ticket and audit windows: %+v", st)
		}
	}
	m.Stop()
	prints := make([][]byte, 2)
	for i, sh := range m.Shards() {
		prints[i] = shardFingerprint(t, sh)
	}
	return bals, prints, supply
}

// killPoints are every 2PC boundary the live settle path crosses, in order:
// before anything durable (the sale is matched), after the home shard's
// prepare, after its commit (the decision, which also closes the want), after
// each remote shard's leg, and after the sale is finished. Points after the
// commit must re-drive to the same bytes; points before it resolve by
// presumed abort, if anything was prepared, and retry.
var killPoints = []killPoint{
	{point: "begin", retryTx: "s0:tx-0001"},
	{point: "prepared", inDoubt: true, aborts: 1, retryTx: "s0:tx-0002"},
	{point: "crash:home-committed", afterCommit: true, inDoubt: true},
	{point: "crash:remote-committed-1", afterCommit: true, inDoubt: true},
	{point: "done", afterCommit: true},
}

type killPoint struct {
	point       string
	afterCommit bool // the home commit was durable when the kill hit
	inDoubt     bool // the round left the sale in doubt: no checkpoint until resolved
	// For kills before the commit: the aborts recovery logs, and the
	// sale's ID when the want is retried.
	aborts  uint64
	retryTx string
}

// epochKills repeat two kills after the commit under -fsync epoch, the
// default policy, which fsyncs only epoch ends and xtx-committed records.
// At the kill, each shard in synced must have persisted through its head,
// its newest record an xtx-committed: a power loss there keeps everything
// recovery needs. "decided" dies right after the home commit, the sale's
// decision, which also closes the want; "want-done" dies once the sale is
// finished, every leg logged.
var epochKills = []struct {
	name, point string
	synced      []int
}{
	{name: "decided", point: "crash:home-committed", synced: []int{0}},
	{name: "want-done", point: "done", synced: []int{0, 1}},
}

// TestXTxKillMatrix kills the market at every 2PC boundary, reboots the
// federation from its shard logs, and asserts: total funds across all shard
// ledgers are conserved; the want settles exactly once; and for every kill
// after the home commit the recovered shards are byte-identical to the
// uncrashed baseline, history window included.
func TestXTxKillMatrix(t *testing.T) {
	xtxKillMatrix(t, false)
	// The bounded-state variant: every shard keeps only a few events,
	// tickets, transactions and audit entries in memory, through the crash,
	// both recoveries and the idle reboot. Retention is a pure function of
	// each shard's event stream, so every assertion above holds unchanged.
	t.Run("tiny-tail", func(t *testing.T) {
		tinyWindows(t)
		xtxKillMatrix(t, false)
	})
	// The checkpoint variant: the crashed market and the recovered one run
	// the background checkpointer every two events, pruning behind it, so
	// checkpoints interleave the fixture, the 2PC, recovery and the retry. No
	// cut may land while a transaction is in doubt, and every assertion above
	// holds unchanged — reboots now start from those checkpoints.
	t.Run("checkpoint", func(t *testing.T) {
		t.Cleanup(retain.Shrink(func(w *retain.Windows) { w.Checkpoint = 2 }))
		xtxKillMatrix(t, true)
	})
}

// tinyWindows forces every retention window of every shard built for the
// rest of the test below the fixtures' length (the 2PC fixture logs only six
// and four events on its two shards): a 2-event log tail, one pollable
// terminal ticket, one transaction of history, two audit entries.
func tinyWindows(t *testing.T) {
	t.Helper()
	t.Cleanup(retain.Shrink(func(w *retain.Windows) {
		*w = retain.Windows{EventTail: 2, EventChunk: 2, Tickets: 1, History: 1, Audit: 2}
	}))
}

// xtxKillMatrix runs the kill matrix; with checkpoints the crashed and the
// recovering markets run the background checkpointer (the caller shrinks its
// interval) over small, pruned segments.
func xtxKillMatrix(t *testing.T, checkpoints bool) {
	baseBals, basePrints, baseSupply := runBaseline(t)
	for _, kp := range killPoints {
		killAndRecover(t, kp.point, kp, wal.SyncAlways, nil, checkpoints, baseBals, basePrints, baseSupply)
	}
	for _, ek := range epochKills {
		i := slices.IndexFunc(killPoints, func(kp killPoint) bool { return kp.point == ek.point })
		killAndRecover(t, ek.name, killPoints[i], wal.SyncEpoch, ek.synced, checkpoints, baseBals, basePrints, baseSupply)
	}
}

// killAndRecover runs one row of the kill matrix as subtest name: the market
// under sync dies at kp.point and reboots twice. Each shard in synced must
// have persisted through its head at the kill, its newest record an
// xtx-committed.
func killAndRecover(t *testing.T, name string, kp killPoint, sync wal.SyncPolicy, synced []int, checkpoints bool,
	baseBals map[string]ledger.Currency, basePrints [][]byte, baseSupply ledger.Currency) {
	config := func(dir string) Config {
		cfg := fedConfig(dir, 2)
		cfg.Sync = sync
		if checkpoints {
			cfg.SegmentBytes, cfg.PruneOnSnapshot = 1<<10, true
		}
		return cfg
	}

	t.Run(name, func(t *testing.T) {
		dir := t.TempDir()
		cfg := config(dir)
		var m *Market
		cfg.testCrash = func(point string) error {
			if point != kp.point {
				return nil
			}
			for _, s := range synced {
				log := m.Shards()[s].Engine.Log()
				head := log.LastSeq()
				persisted, err := log.Persisted()
				last := log.Since(head - 1)
				if err != nil || persisted != head || len(last) != 1 || last[0].Kind != engine.EventXTxCommitted {
					t.Errorf("shard %d log at the kill: persisted %d of %d (%v), newest %+v", s, persisted, head, err, last)
				}
			}
			return fmt.Errorf("injected death at %s", point)
		}
		m, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fx := newCrossShardFixture(t)
		if checkpoints {
			m.Start()
			fx.drive(t, m)
			waitCheckpointed(t, m)
		} else {
			fx.drive(t, m)
		}
		tk := fx.submitSpanning(t, m)
		if n := m.CoordRound(); n != 0 {
			t.Fatalf("crashed settle still counted (%d)", n)
		}
		// The home commit closes the want, but its ticket reads done only
		// once the coordinator reports the remote legs paid: a kill between
		// the commit and that report finds it still applied, without a
		// sale, until the reboot re-drives the legs.
		if tv, _ := m.Ticket(tk); kp.afterCommit {
			status, tx := engine.TicketDone, "s0:tx-0001"
			if kp.inDoubt {
				status, tx = engine.TicketApplied, ""
			}
			if tv.Status != status || tv.TxID != tx {
				t.Fatalf("ticket at a kill after the home commit: %+v, want %s %q", tv, status, tx)
			}
		}
		// Money must never be CREATED mid-flight: between home-commit's
		// withdraw and the remote deposits the supply may dip, never rise.
		if got := m.TotalSupply(); got > baseSupply {
			t.Fatalf("mid-crash supply %v exceeds baseline %v", got, baseSupply)
		}
		// Until recovery resolves it, a transaction the round left
		// behind is in doubt: no checkpoint may cut a shard now.
		if _, err := m.SnapshotAll(); checkpoints && (err == nil) == kp.inDoubt {
			t.Fatalf("checkpoint after a kill at %s: err = %v", kp.point, err)
		}
		m.Stop()

		// Reboot: every shard replays its WAL, then the coordinator
		// resolves the in-doubt transaction from the replayed shards.
		m2, err := Open(config(dir))
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		if checkpoints {
			m2.Start()
		}
		if got := m2.TotalSupply(); got != baseSupply {
			t.Fatalf("post-recovery supply %v, want %v", got, baseSupply)
		}
		for _, sh := range m2.Shards() {
			if i := sh.Platform.Arbiter.Ledger.VerifyChain(); i >= 0 {
				t.Fatalf("shard %d audit chain corrupt at %d", sh.Index, i)
			}
			if len(sh.Engine.XTxHeld()) != 0 {
				t.Fatalf("shard %d left escrow in flight after recovery", sh.Index)
			}
		}

		if kp.afterCommit {
			// Durable commit: recovery re-drove the SAME xid to the same
			// bytes, and the want is terminally done exactly once.
			if pending, settled, _ := m2.CoordStats(); pending != 0 || settled != 1 {
				t.Fatalf("coordinator counters after re-drive: pending=%d settled=%d", pending, settled)
			}
			if tv, ok := m2.Ticket(tk); !ok || tv.Status != engine.TicketDone || tv.TxID != "s0:tx-0001" {
				t.Fatalf("recovered ticket: %+v", tv)
			}
			m2.Stop()
			for i, sh := range m2.Shards() {
				if got := shardFingerprint(t, sh); string(got) != string(basePrints[i]) {
					t.Fatalf("shard %d diverged from uncrashed baseline after %s kill:\n--- baseline\n%s\n--- recovered\n%s",
						i, kp.point, basePrints[i], got)
				}
			}
		} else {
			// No commit: presumed abort refunded any escrow and the want
			// retries, under a fresh xid if one was drawn; the retry
			// reaches the same economic outcome as the baseline.
			if _, _, aborted := m2.CoordStats(); aborted != kp.aborts {
				t.Fatalf("recovery logged %d aborts, want %d", aborted, kp.aborts)
			}
			if pending, _, _ := m2.CoordStats(); pending != 1 {
				t.Fatalf("want not pending for retry (pending=%d)", pending)
			}
			if n := m2.CoordRound(); n != 1 {
				t.Fatalf("retry round settled %d", n)
			}
			if tv, ok := m2.Ticket(tk); !ok || tv.Status != engine.TicketDone || tv.TxID != kp.retryTx {
				t.Fatalf("retried ticket: %+v", tv)
			}
			fxBals := accountBalances(m2, fx)
			for name, want := range baseBals {
				if fxBals[name] != want {
					t.Fatalf("balance %s = %v after retry, baseline %v", name, fxBals[name], want)
				}
			}
			if got := m2.TotalSupply(); got != baseSupply {
				t.Fatalf("post-retry supply %v, want %v", got, baseSupply)
			}
			m2.Stop()
		}

		// A further clean reboot must be a no-op: recovery is idempotent
		// and replays to the exact same per-shard bytes.
		m3, err := Open(config(dir))
		if err != nil {
			t.Fatalf("second recovery open: %v", err)
		}
		ref := make([][]byte, len(m2.Shards()))
		for i, sh := range m2.Shards() {
			ref[i] = shardFingerprint(t, sh)
		}
		m3.Stop()
		for i, sh := range m3.Shards() {
			if got := shardFingerprint(t, sh); string(got) != string(ref[i]) {
				t.Fatalf("shard %d changed on an idle reboot after %s kill", i, kp.point)
			}
		}
	})
}

// waitCheckpointed waits for the background checkpointer to have covered
// every shard of m at least once.
func waitCheckpointed(t *testing.T, m *Market) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if !slices.ContainsFunc(m.ShardStats(), func(s engine.Stats) bool { return s.CheckpointSeq == 0 }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint on every shard: %+v", m.ShardStats())
		}
	}
}

// TestXTxDoubleCrashDuringRecovery kills the market right after the durable
// home commit, then kills the RECOVERY right after it re-drove the remote
// leg, then recovers again — the re-drive must be idempotent through both
// deaths (the remote shard's replayed leg stops a second deposit) and still
// land on the baseline bytes.
func TestXTxDoubleCrashDuringRecovery(t *testing.T) {
	_, basePrints, baseSupply := runBaseline(t)

	dir := t.TempDir()
	cfg := fedConfig(dir, 2)
	cfg.testCrash = func(point string) error {
		if point == "crash:home-committed" {
			return fmt.Errorf("injected death at %s", point)
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	fx.submitSpanning(t, m)
	m.CoordRound()
	m.Stop()

	// First recovery dies right after re-driving the remote leg: its
	// xtx-committed event is durable in shard 1's WAL.
	cfg2 := fedConfig(dir, 2)
	cfg2.testCrash = func(point string) error {
		if point == "recover-crash:remote-committed-1" {
			return fmt.Errorf("injected recovery death at %s", point)
		}
		return nil
	}
	if _, err := Open(cfg2); err == nil {
		t.Fatal("recovery should have died at the injected boundary")
	} else if !strings.Contains(err.Error(), "recover-crash:remote-committed-1") {
		t.Fatalf("unexpected recovery error: %v", err)
	}

	// Second recovery: the remote leg replays on shard 1, so nothing is
	// re-driven, and everything lands on the baseline bytes.
	m3, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if got := m3.TotalSupply(); got != baseSupply {
		t.Fatalf("supply %v after double crash, want %v", got, baseSupply)
	}
	if pending, settled, _ := m3.CoordStats(); pending != 0 || settled != 1 {
		t.Fatalf("coordinator counters: pending=%d settled=%d", pending, settled)
	}
	m3.Stop()
	for i, sh := range m3.Shards() {
		if got := shardFingerprint(t, sh); string(got) != string(basePrints[i]) {
			t.Fatalf("shard %d diverged after double crash:\n--- baseline\n%s\n--- recovered\n%s", i, basePrints[i], got)
		}
	}
}

// driveMixedWorkload runs local settles on several shards plus one
// cross-shard settle — the restart-fingerprint workload.
func driveMixedWorkload(t *testing.T, m *Market, shards int) {
	t.Helper()
	for shard := 0; shard < shards; shard++ {
		b := nameOn(t, fmt.Sprintf("lb%d-", shard), shard, shards)
		s := nameOn(t, fmt.Sprintf("ls%d-", shard), shard, shards)
		mustTk(m.SubmitRegister(b, 4000))
		openShare(t, m, s, s+"/d0", flatRel(s+"/d0", 20))
		m.TriggerEpoch()
		w, f := coverWant(b, 150, "a", "b")
		mustTk(m.SubmitRequest(w, f))
	}
	m.TriggerEpoch()
	// The spanning pair: distinct column names the local (a, b) datasets do
	// not carry, split between shard 0 and the last shard.
	xb := nameOn(t, "xb", 0, shards)
	xa := nameOn(t, "xa", 0, shards)
	xs := nameOn(t, "xs", shards-1, shards)
	mustTk(m.SubmitRegister(xb, 6000))
	openShare(t, m, xa, xa+"/d0", keyedRel(xa+"/d0", "xleft", 20))
	openShare(t, m, xs, xs+"/d0", keyedRel(xs+"/d0", "xright", 30))
	m.TriggerEpoch()
	w, f := joinWant(xb, 900, "xleft", "xright")
	mustTk(m.SubmitRequest(w, f))
	m.TriggerEpoch()
	if shards > 1 {
		if _, settled, _ := m.CoordStats(); settled != 1 {
			t.Fatalf("cross-shard settle missing (settled=%d)", settled)
		}
	}
}

// TestFederationRestartByteIdentical: shards=2 and shards=4 federations,
// clean shutdown, reboot from the per-shard WALs — every shard must come back
// byte-identical, including the cross-shard sale its WAL holds.
func TestFederationRestartByteIdentical(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(fedConfig(dir, shards))
			if err != nil {
				t.Fatal(err)
			}
			driveMixedWorkload(t, m, shards)
			supply := m.TotalSupply()
			m.Stop()
			prints := make([][]byte, shards)
			for i, sh := range m.Shards() {
				prints[i] = shardFingerprint(t, sh)
			}

			m2, err := Open(fedConfig(dir, shards))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := m2.TotalSupply(); got != supply {
				t.Fatalf("supply %v after restart, want %v", got, supply)
			}
			m2.Stop()
			for i, sh := range m2.Shards() {
				if got := shardFingerprint(t, sh); string(got) != string(prints[i]) {
					t.Fatalf("shard %d/%d diverged on clean restart:\n--- before\n%s\n--- after\n%s",
						i, shards, prints[i], got)
				}
			}
		})
	}
}

// TestFederationSnapshotRestartByteIdentical: SnapshotAll mid-run, more
// work, clean shutdown, reboot — every shard boots from its snapshot plus
// WAL tail and must match the pre-restart bytes; covered segments were
// pruned underneath.
func TestFederationSnapshotRestartByteIdentical(t *testing.T) {
	for _, v := range []struct {
		shards int
		tiny   bool // every retention window forced below the workload's length
	}{{2, false}, {4, false}, {2, true}} {
		shards, name := v.shards, fmt.Sprintf("shards=%d", v.shards)
		if v.tiny {
			name = "tiny-tail-" + name
		}
		t.Run(name, func(t *testing.T) {
			if v.tiny {
				tinyWindows(t)
			}
			dir := t.TempDir()
			cfg := fedConfig(dir, shards)
			cfg.SegmentBytes = 4 << 10 // small segments so pruning has work
			cfg.PruneOnSnapshot = true
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			driveMixedWorkload(t, m, shards)
			paths, err := m.SnapshotAll()
			if err != nil {
				t.Fatalf("SnapshotAll: %v", err)
			}
			if len(paths) != shards {
				t.Fatalf("SnapshotAll wrote %d snapshots, want %d", len(paths), shards)
			}
			// Post-snapshot work lands in the WAL tails.
			late := nameOn(t, "late", 0, shards)
			mustTk(m.SubmitRegister(late, 777))
			m.TriggerEpoch()
			supply := m.TotalSupply()
			m.Stop()
			prints := make([][]byte, shards)
			for i, sh := range m.Shards() {
				prints[i] = shardFingerprint(t, sh)
			}

			m2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen from snapshots: %v", err)
			}
			if got := m2.TotalSupply(); got != supply {
				t.Fatalf("supply %v after snapshot restart, want %v", got, supply)
			}
			if bal, ok := m2.Balance(late); !ok || bal != ledger.FromFloat(777) {
				t.Fatalf("post-snapshot registration lost: %v (ok=%v)", bal, ok)
			}
			m2.Stop()
			for i, sh := range m2.Shards() {
				if got := shardFingerprint(t, sh); string(got) != string(prints[i]) {
					t.Fatalf("shard %d/%d diverged on snapshot restart:\n--- before\n%s\n--- after\n%s",
						i, shards, prints[i], got)
				}
			}
		})
	}
}

// TestSnapshotRefusedMidXTx: the engine-level guard — a shard holding a 2PC
// escrow refuses to snapshot, so no lineage can ever capture in-transit
// funds (SnapshotAll additionally refuses while a sale is in doubt).
func TestSnapshotRefusedMidXTx(t *testing.T) {
	dir := t.TempDir()
	cfg := fedConfig(dir, 2)
	cfg.testCrash = func(point string) error {
		if point == "prepared" {
			return fmt.Errorf("hold it there")
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	fx.submitSpanning(t, m)
	m.CoordRound() // dies with the escrow held on shard 0
	if len(m.Shards()[0].Engine.XTxHeld()) != 1 {
		t.Fatal("escrow should be in flight")
	}
	if _, err := m.Shards()[0].Engine.Snapshot(); err == nil {
		t.Fatal("snapshot must be refused while an escrow is in flight")
	}
	if _, err := m.Shards()[1].Engine.Snapshot(); err != nil {
		t.Fatalf("uninvolved shard refused to snapshot: %v", err)
	}
}

// TestBackgroundCheckpoints: a started durable market checkpoints itself each
// time a shard's log runs the interval past its last checkpoint — a count of
// events, reported as checkpoint_seq and on /metrics — retires all but two
// snapshots per lineage, prunes behind them, and a reboot starts from the
// newest checkpoint, replaying less than one interval.
func TestBackgroundCheckpoints(t *testing.T) {
	const every = 16
	t.Cleanup(retain.Shrink(func(w *retain.Windows) { w.Checkpoint = every }))
	reg := obs.NewRegistry()
	cfg := fedConfig(t.TempDir(), 2)
	cfg.SegmentBytes, cfg.PruneOnSnapshot, cfg.Metrics = 1<<10, true, reg
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 40; i++ {
		for shard := 0; shard < 2; shard++ {
			mustTk(m.SubmitRegister(nameOn(t, fmt.Sprintf("p%d-", i), shard, 2), 100))
		}
		m.TriggerEpoch()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		per := m.ShardStats()
		if !slices.ContainsFunc(per, func(s engine.Stats) bool { return s.Events-s.CheckpointSeq >= every }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoints never caught up with the logs: %+v", per)
		}
	}
	m.Stop() // waits for a checkpoint still in flight
	per := m.ShardStats()
	if got, want := m.Stats().CheckpointSeq, per[0].CheckpointSeq+per[1].CheckpointSeq; got != want {
		t.Fatalf("market checkpoint_seq %d, want the shards' sum %d", got, want)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var written float64
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "wal_checkpoints_total "); ok {
			fmt.Sscan(v, &written)
		}
	}
	// The checkpointer promises that every shard's newest checkpoint ends
	// within every events of its log head, not one checkpoint per mark: when
	// a log runs ahead of it, one checkpoint covers several marks
	// (watchCheckpoints). So the count is only bounded below by one per shard.
	for i, s := range per {
		if s.CheckpointSeq == 0 || s.Events-s.CheckpointSeq >= every {
			t.Fatalf("shard %d checkpointed at seq %d with its log at %d, want within %d", i, s.CheckpointSeq, s.Events, every)
		}
	}
	if written < float64(len(per)) || !strings.Contains(sb.String(), "wal_checkpoint_seconds_count") {
		t.Fatalf("wal_checkpoints_total %v, want at least one per shard, and a wal_checkpoint_seconds histogram", written)
	}
	for _, sh := range m.Shards() {
		snaps, _ := filepath.Glob(filepath.Join(sh.Dir, "snapshot-*.json"))
		if _, err := os.Stat(filepath.Join(sh.Dir, "wal-0000000001.seg")); len(snaps) != 2 || err == nil {
			t.Fatalf("shard %d holds snapshots %v and its first segment (stat err %v)", sh.Index, snaps, err)
		}
	}

	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	for i, sh := range m2.Shards() {
		if b := sh.Boot; b.FromSnapshotSeq != per[i].CheckpointSeq || b.Replayed >= every {
			t.Fatalf("shard %d booted %+v, want the checkpoint at %d and under %d events replayed", i, b, per[i].CheckpointSeq, every)
		}
	}
}
