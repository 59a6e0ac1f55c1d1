package federation

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// resolveOnce drives the canonical cross-shard sale with a failure injected
// once at point, then resolves it: by reopening the directory when restart is
// set, else by the next coordinator round of the same market. Either way a
// round and a checkpoint must then succeed, supply must equal supply and the
// want must be settled exactly once. It returns the shards' fingerprints.
func resolveOnce(t *testing.T, point string, inDoubt, restart bool, supply ledger.Currency) [][]byte {
	t.Helper()
	dir := t.TempDir()
	cfg := fedConfig(dir, 2)
	fired := false
	cfg.testCrash = func(p string) error {
		if p == point && !fired {
			fired = true
			return fmt.Errorf("injected failure at %s", p)
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	tk := fx.submitSpanning(t, m)
	if n := m.CoordRound(); n != 0 || !fired {
		t.Fatalf("round with a failure at %s settled %d (fired=%v)", point, n, fired)
	}
	if _, err := m.SnapshotAll(); (err == nil) == inDoubt {
		t.Fatalf("checkpoint after a failure at %s: %v", point, err)
	}
	if restart {
		m.Stop()
		if m, err = Open(fedConfig(dir, 2)); err != nil {
			t.Fatal(err)
		}
	}
	m.CoordRound()
	if _, err := m.SnapshotAll(); err != nil {
		t.Fatalf("checkpoint after the round that resolved a failure at %s: %v", point, err)
	}
	if got := m.TotalSupply(); got != supply {
		t.Fatalf("supply %v after resolving a failure at %s, want %v", got, point, supply)
	}
	if pending, settled, _ := m.CoordStats(); pending != 0 || settled != 1 {
		t.Fatalf("after resolving a failure at %s: %d wants open, %d sales, want 0 and 1", point, pending, settled)
	}
	if tv, _ := m.Ticket(tk); tv.Status != engine.TicketDone {
		t.Fatalf("want after resolving a failure at %s: %+v", point, tv)
	}
	m.Stop()
	prints := make([][]byte, len(m.Shards()))
	for i, sh := range m.Shards() {
		prints[i] = shardFingerprint(t, sh)
	}
	return prints
}

// TestXTxResolvesInProcess fails a leg at every 2PC boundary without a
// restart: a checkpoint is refused while the sale is in doubt, the next
// coordinator round resolves it, a checkpoint then succeeds, funds are
// conserved, the want settles once, and every shard ends byte-identical to a
// market that was restarted instead.
func TestXTxResolvesInProcess(t *testing.T) {
	_, _, supply := runBaseline(t)
	for _, kp := range killPoints {
		t.Run(kp.point, func(t *testing.T) {
			live, restarted := resolveOnce(t, kp.point, kp.inDoubt, false, supply), resolveOnce(t, kp.point, kp.inDoubt, true, supply)
			for i := range live {
				if string(live[i]) != string(restarted[i]) {
					t.Fatalf("shard %d resolved in process diverged from a restart:\n--- in process\n%s\n--- restarted\n%s", i, live[i], restarted[i])
				}
			}
		})
	}
}

// TestXTxBookkeepingAfterCheckpoint: a home shard keeps its commits for
// recovery until a checkpoint cut, and a restart rebuilds exactly what the
// live market holds on either side of the cut: the commits from the WAL tail
// before it, none after it, the open cross-shard wants and the remote legs
// logged (both in the snapshot).
func TestXTxBookkeepingAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	fx.submitSpanning(t, m)
	w, f := joinWant(fx.buyer, 0.01, "a", "b") // stays open
	mustTk(m.SubmitRequest(w, f))
	if n := m.CoordRound(); n != 1 {
		t.Fatalf("round settled %d", n)
	}
	commits := func(m *Market) int { return len(m.Shards()[0].Engine.XTxCommits()) }
	if n := commits(m); n != 1 {
		t.Fatalf("live home shard keeps %d commits, want 1", n)
	}
	m.Stop()

	m2, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n := commits(m2); n != 1 {
		t.Fatalf("replayed home shard keeps %d commits, want 1", n)
	}
	if _, err := m2.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if n := commits(m2); n != 0 {
		t.Fatalf("home shard keeps %d commits after a checkpoint, want 0", n)
	}
	m2.Stop()
	live := [][]byte{shardFingerprint(t, m2.Shards()[0]), shardFingerprint(t, m2.Shards()[1])}

	m3, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Stop()
	if n := commits(m3); n != 0 || len(m3.Shards()[0].Engine.XTxHeld()) != 0 {
		t.Fatalf("restored home shard keeps %d commits, %d prepares", n, len(m3.Shards()[0].Engine.XTxHeld()))
	}
	if pending, _, _ := m3.CoordStats(); pending != 1 {
		t.Fatalf("restored market has %d open cross-shard wants, want 1", pending)
	}
	for i, sh := range m3.Shards() {
		if got := shardFingerprint(t, sh); string(got) != string(live[i]) {
			t.Fatalf("shard %d restored from its checkpoint diverged:\n--- live\n%s\n--- restored\n%s", i, live[i], got)
		}
	}
}

// TestHomeCommitSyncedBeforeRemoteLegs: under -fsync epoch the home commit
// record is in the home shard's WAL, and the WAL reports it persisted,
// before the coordinator appends the first remote leg (the wal package's
// TestSyncEpochSyncsXTxCommit shows that persisting that record fsyncs it).
// The durable market holds nothing but its shard directories.
func TestHomeCommitSyncedBeforeRemoteLegs(t *testing.T) {
	dir := t.TempDir()
	cfg := fedConfig(dir, 2)
	cfg.Sync = wal.SyncEpoch
	var m *Market
	checked := false
	cfg.testCrash = func(p string) error {
		if p != "crash:home-committed" {
			return nil
		}
		home, remote := m.Shards()[0].Engine.Log(), m.Shards()[1].Engine.Log()
		head := home.LastSeq()
		persisted, err := home.Persisted()
		last := home.Since(head - 1)
		if err != nil || persisted != head || len(last) != 1 || last[0].Kind != engine.EventXTxCommitted || last[0].XTxRole != engine.XTxRoleHome {
			t.Errorf("home log at the commit: persisted %d of %d (%v), newest %+v", persisted, head, err, last)
		}
		if slices.ContainsFunc(remote.Since(0), func(ev engine.Event) bool { return ev.Kind == engine.EventXTxCommitted }) {
			t.Error("a remote leg was appended before the home commit returned")
		}
		checked = true
		return nil
	}
	var err error
	if m, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	fx.submitSpanning(t, m)
	if n := m.CoordRound(); n != 1 || !checked {
		t.Fatalf("round settled %d (checked=%v)", n, checked)
	}
	m.Stop()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[shard-0 shard-1]" {
		t.Fatalf("market directory holds %v, want only its shard directories", names)
	}
}

// TestDatasetIDCollisionRefused: a dataset ID a seller on another shard
// already holds is refused at submit time, also after a restart (the router
// seeds its owners at Open); the same seller and a seller on the same shard
// are left to that shard's catalog, and one shard keeps the router inert.
func TestDatasetIDCollisionRefused(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	a0, b0, c1 := nameOn(t, "own", 0, 2), nameOn(t, "same", 0, 2), nameOn(t, "other", 1, 2)
	share := func(m *Market, seller string) error {
		_, err := m.SubmitShare(seller, "dup", flatRel("dup", 5),
			wtp.DatasetMeta{Dataset: "dup"}, license.Terms{Kind: license.Open})
		return err
	}
	if err := share(m, a0); err != nil {
		t.Fatal(err)
	}
	m.TriggerEpoch()
	if err := share(m, c1); err == nil || !strings.Contains(err.Error(), a0) {
		t.Fatalf("a seller on another shard reused the ID: %v", err)
	}
	if err := share(m, b0); err != nil {
		t.Fatalf("a seller on the same shard was refused by the router: %v", err)
	}
	m.Stop()

	m2, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	if err := share(m2, c1); err == nil {
		t.Fatal("a seller on another shard reused the ID after a restart")
	}

	one, err := Open(Config{Shards: 1, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Stop()
	for _, seller := range []string{a0, c1} {
		if err := share(one, seller); err != nil {
			t.Fatalf("one shard refused %s at submit: %v", seller, err)
		}
	}
	if n := len(one.router.owners); n != 0 {
		t.Fatalf("the one-shard router recorded %d owners", n)
	}
}

// coordLogFixture copies testdata/coordlog-<name>, a two-shard directory an
// earlier release wrote with its coord.log, into a temporary directory, and
// returns it with a digest of every file in it.
func coordLogFixture(t *testing.T, name string) (string, map[string][32]byte) {
	t.Helper()
	src := filepath.Join("testdata", "coordlog-"+name)
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == src {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src+string(filepath.Separator)))
		if d.IsDir() {
			return os.Mkdir(dst, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(dst, raw, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, digestTree(t, dir)
}

func digestTree(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		out[strings.TrimPrefix(path, dir)] = sha256.Sum256(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoordLogDirectoriesFromAnEarlierRelease boots two-shard directories an
// earlier release wrote, whose cross-shard decisions live in coord.log. A
// finished log boots with that release's balances and settlements, is
// renamed coord.log.retired once, and the market then settles a new
// cross-shard sale; a log with a pending want or an unfinished transaction
// is refused, naming it, and every file is left as it was.
func TestCoordLogDirectoriesFromAnEarlierRelease(t *testing.T) {
	t.Run("finished", func(t *testing.T) {
		dir, before := coordLogFixture(t, "finished")
		raw, err := os.ReadFile(filepath.Join("testdata", "coordlog-finished.expect.json"))
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			Balances    map[string]ledger.Currency
			Arbiters    []ledger.Currency
			Supply      ledger.Currency
			Settlements [][]ledger.Settlement
			Names       map[string]string
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		for boot := 1; boot <= 2; boot++ {
			m, err := Open(fedConfig(dir, 2))
			if err != nil {
				t.Fatalf("boot %d: %v", boot, err)
			}
			for name, bal := range want.Balances {
				if got, _ := m.Balance(name); got != bal {
					t.Errorf("boot %d: %s holds %v, want %v", boot, name, got, bal)
				}
			}
			for i, sh := range m.Shards() {
				if got := sh.Platform.Arbiter.Ledger.Balance(arbiter.ArbiterAccount); got != want.Arbiters[i] {
					t.Errorf("boot %d: shard %d arbiter holds %v, want %v", boot, i, got, want.Arbiters[i])
				}
				var book []ledger.Settlement
				if err := sh.Engine.Settlements().Cut().Each(func(s ledger.Settlement) error { book = append(book, s); return nil }); err != nil {
					t.Fatal(err)
				}
				if got, exp := fmt.Sprintf("%+v", book), fmt.Sprintf("%+v", want.Settlements[i]); got != exp {
					t.Errorf("boot %d: shard %d settlements %s, want %s", boot, i, got, exp)
				}
			}
			if got := m.TotalSupply(); got != want.Supply {
				t.Errorf("boot %d: supply %v, want %v", boot, got, want.Supply)
			}
			retired, err := os.ReadFile(filepath.Join(dir, "coord.log.retired"))
			if _, gone := os.Stat(filepath.Join(dir, "coord.log")); err != nil || sha256.Sum256(retired) != before["/coord.log"] || gone == nil {
				t.Fatalf("boot %d: coord.log not renamed coord.log.retired unchanged (%v)", boot, err)
			}
			if boot == 2 {
				// The market goes on: a new cross-shard sale settles in the
				// shard WALs alone.
				w, f := joinWant(want.Names["buyer"], 900, "a", "b")
				tk := mustTk(m.SubmitRequest(w, f))
				if n := m.CoordRound(); n != 1 {
					t.Fatalf("new cross-shard sale: round settled %d", n)
				}
				if tv, _ := m.Ticket(tk); tv.Status != engine.TicketDone || tv.TxID != "s0:tx-0001" {
					t.Fatalf("new cross-shard sale: %+v", tv)
				}
			}
			m.Stop()
		}
	})
	for _, c := range []struct{ name, names string }{
		{"pending-want", "want x:000002"},
		{"unfinished-xtx", "transaction xtx-000001"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, before := coordLogFixture(t, c.name)
			if _, err := Open(fedConfig(dir, 2)); err == nil || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("boot = %v, want a refusal naming %s", err, c.names)
			}
			if after := digestTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("a refused boot changed the directory:\n%v\n%v", before, after)
			}
		})
	}
}

// TestCrossShardTicketWaitsForItsLegs holds a cross-shard sale between its
// home commit and its remote legs, and polls the want's ticket and the
// federation's supply meanwhile: the ticket must not read done while the
// remote seller's cut is in flight, so a client that reads balances after a
// done finds funds conserved. It read done from the home commit on, and a
// benchmark verify that read balances then found them one remote cut short.
func TestCrossShardTicketWaitsForItsLegs(t *testing.T) {
	paused, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(resume) }) }
	cfg := fedConfig(t.TempDir(), 2)
	cfg.testCrash = func(point string) error {
		if point == "crash:home-committed" {
			close(paused)
			<-resume
		}
		return nil
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	defer release() // a failed check must not leave the round waiting
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	supply := m.TotalSupply()
	tk := fx.submitSpanning(t, m)
	epoch := make(chan struct{})
	go func() {
		m.TriggerEpoch()
		close(epoch)
	}()
	<-paused
	for i := 0; i < 20; i++ {
		if got, _ := m.Ticket(tk); got.Status == engine.TicketDone {
			t.Fatalf("ticket reads %+v with the remote legs in flight: supply %v of %v", got, m.TotalSupply(), supply)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	<-epoch
	if got, _ := m.Ticket(tk); got.Status != engine.TicketDone || got.TxID != "s0:tx-0001" {
		t.Fatalf("ticket reads %+v once the legs are paid, want done as s0:tx-0001", got)
	}
	if got := m.TotalSupply(); got != supply {
		t.Fatalf("supply %v after the sale, want %v", got, supply)
	}
}
