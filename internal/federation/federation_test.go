package federation

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wtp"
)

const testDesign = "posted-baseline"

// nameOn brute-forces a participant name hashing to the given home shard —
// deterministic, so scripted workloads can pin sellers and buyers to shards.
func nameOn(t *testing.T, prefix string, shard, shards int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if HomeOf(n, shards) == shard {
			return n
		}
	}
	t.Fatalf("no name with prefix %q on shard %d/%d", prefix, shard, shards)
	return ""
}

// keyedRel builds a relation with the shared join key k plus one value
// column — datasets then cover only half a join want, exactly the wal
// replay-test idiom forcing multi-source mashups.
func keyedRel(name, valCol string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col(valCol, relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

// flatRel builds a single-source (a, b) relation.
func flatRel(name string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

func joinWant(buyer string, price float64, cols ...string) (dod.Want, *wtp.Function) {
	return dod.Want{Columns: cols}, &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: cols, WantRows: 1},
		Curve: []wtp.CurvePoint{{MinSatisfaction: 0.9, Price: price}},
	}
}

func coverWant(buyer string, price float64, cols ...string) (dod.Want, *wtp.Function) {
	return dod.Want{Columns: cols}, &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: cols, WantRows: 1},
		Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: price}},
	}
}

func mustTk(id string, err error) string {
	if err != nil {
		panic(err)
	}
	return id
}

func openShare(t *testing.T, m *Market, seller, ds string, rel *relation.Relation) string {
	t.Helper()
	return mustTk(m.SubmitShare(seller, catalog.DatasetID(ds), rel,
		wtp.DatasetMeta{Dataset: ds, HasProvenance: true}, license.Terms{Kind: license.Open}))
}

// shardFingerprint canonicalizes one shard's externally observable state —
// the wal replay-test fingerprint, per shard, whole settlement book streamed.
func shardFingerprint(t *testing.T, sh *Shard) []byte {
	t.Helper()
	snap, err := sh.Engine.Snapshot()
	if err != nil {
		t.Fatalf("shard %d snapshot: %v", sh.Index, err)
	}
	snap.TakenAt = time.Time{}
	var book []ledger.Settlement
	if err := snap.Book.Each(func(s ledger.Settlement) error { book = append(book, s); return nil }); err != nil {
		t.Fatalf("shard %d book: %v", sh.Index, err)
	}
	var history []string
	for _, tx := range sh.Platform.Arbiter.History() {
		history = append(history, fmt.Sprintf("%s/%s/%s/%.2f", tx.ID, tx.RequestID, tx.Buyer, tx.Price))
	}
	out, err := json.MarshalIndent(struct {
		Snap      *engine.SnapshotState
		Book      []ledger.Settlement
		History   []string
		Supply    ledger.Currency
		Conserved bool
	}{snap, book, history, sh.Platform.Arbiter.Ledger.TotalSupply(), snap.Book.Conserved()}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHomeOfSingleShardIsZero(t *testing.T) {
	for _, n := range []string{"", "a", "buyer-42", strings.Repeat("x", 100)} {
		if got := HomeOf(n, 1); got != 0 {
			t.Fatalf("HomeOf(%q, 1) = %d", n, got)
		}
		if got := HomeOf(n, 0); got != 0 {
			t.Fatalf("HomeOf(%q, 0) = %d", n, got)
		}
	}
}

func TestShardTicketRoundTrip(t *testing.T) {
	s, local, ok := splitShardID(shardTicket(3, "sub-000017"))
	if !ok || s != 3 || local != "sub-000017" {
		t.Fatalf("round trip gave (%d, %q, %v)", s, local, ok)
	}
	for _, bad := range []string{"sub-000001", "s:abc", "sx:1", ""} {
		if _, _, ok := splitShardID(bad); ok {
			t.Fatalf("splitShardID(%q) should fail", bad)
		}
	}
}

// TestLocalRouting: participants land on their hash-homed shards, local
// wants clear without the coordinator, and federation tickets resolve with
// rewritten IDs.
func TestLocalRouting(t *testing.T) {
	m, err := Open(Config{Shards: 4, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	const shard = 2
	buyer := nameOn(t, "b", shard, 4)
	seller := nameOn(t, "s", shard, 4)
	btk := mustTk(m.SubmitRegister(buyer, 5000))
	if !strings.HasPrefix(btk, fmt.Sprintf("s%d:", shard)) {
		t.Fatalf("buyer ticket %s not on home shard %d", btk, shard)
	}
	openShare(t, m, seller, seller+"/d0", flatRel(seller+"/d0", 20))
	m.TriggerEpoch()

	w, f := coverWant(buyer, 150, "a", "b")
	rtk := mustTk(m.SubmitRequest(w, f))
	if !strings.HasPrefix(rtk, fmt.Sprintf("s%d:", shard)) {
		t.Fatalf("local want ticket %s routed off the home shard", rtk)
	}
	m.TriggerEpoch()
	tk, ok := m.Ticket(rtk)
	if !ok || tk.Status != engine.TicketDone {
		t.Fatalf("local want did not settle: %+v", tk)
	}
	if !strings.HasPrefix(tk.TxID, fmt.Sprintf("s%d:", shard)) {
		t.Fatalf("settled TxID %q not rewritten to federation form", tk.TxID)
	}
	if bal, ok := m.Balance(seller); !ok || bal <= 0 {
		t.Fatalf("seller balance after local settle: %v (ok=%v)", bal, ok)
	}
	if pending, settled, _ := m.CoordStats(); pending != 0 || settled != 0 {
		t.Fatalf("coordinator touched a local want: pending=%d settled=%d", pending, settled)
	}
	// Only the two engaged shards saw work; the others idled in parallel.
	st := m.Stats()
	if st.Matched != 1 || st.Applied < 2 {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
}

// crossShardFixture stands up the canonical spanning workload: the buyer
// and seller A live on shard 0, seller B on shard 1, and the only mashup
// satisfying the want joins A's (k, a) with B's (k, b) across the shards.
type crossShardFixture struct {
	buyer, sellerA, sellerB string
	funds                   float64
}

func newCrossShardFixture(t *testing.T) crossShardFixture {
	return crossShardFixture{
		buyer:   nameOn(t, "buyer", 0, 2),
		sellerA: nameOn(t, "sellA", 0, 2),
		sellerB: nameOn(t, "sellB", 1, 2),
		funds:   5000,
	}
}

// drive registers and shares everything and runs one epoch; the spanning
// want is NOT submitted (callers control when).
func (fx crossShardFixture) drive(t *testing.T, m *Market) {
	t.Helper()
	mustTk(m.SubmitRegister(fx.buyer, fx.funds))
	openShare(t, m, fx.sellerA, fx.sellerA+"/d0", keyedRel(fx.sellerA+"/d0", "a", 20))
	openShare(t, m, fx.sellerB, fx.sellerB+"/d0", keyedRel(fx.sellerB+"/d0", "b", 30))
	m.TriggerEpoch()
}

// submitSpanning submits the want only a join across both shards covers,
// which its buyer's home shard files at its next epoch.
func (fx crossShardFixture) submitSpanning(t *testing.T, m *Market) string {
	t.Helper()
	w, f := joinWant(fx.buyer, 900, "a", "b")
	tk := mustTk(m.SubmitRequest(w, f))
	if !strings.HasPrefix(tk, "s0:") {
		t.Fatalf("spanning want got ticket %s, want one of its buyer's home shard 0", tk)
	}
	return tk
}

// TestCrossShardSettlement: a want spanning two shard catalogs is filed on
// its buyer's home shard, settles via escrowed 2PC, pays the remote seller on
// its own shard's ledger, conserves total supply across the federation, and
// leaves the sale, mashup included, in the home shard's history window.
func TestCrossShardSettlement(t *testing.T) {
	m, err := Open(Config{Shards: 2, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	supply := m.TotalSupply()

	tk := fx.submitSpanning(t, m)
	if _, counted := m.TriggerEpoch(); !counted {
		t.Fatal("epoch with a coordinator settle should count")
	}
	got, ok := m.Ticket(tk)
	if !ok || got.Status != engine.TicketDone {
		t.Fatalf("cross-shard want did not settle: %+v", got)
	}
	// The home shard's arbiter counter draws the sale's ID.
	if got.TxID != "s0:tx-0001" {
		t.Fatalf("TxID %q, want s0:tx-0001", got.TxID)
	}
	if got.Price <= 0 {
		t.Fatalf("settled at price %v", got.Price)
	}

	buyerBal, _ := m.Balance(fx.buyer)
	if buyerBal >= ledger.FromFloat(fx.funds) {
		t.Fatalf("buyer balance %v did not decrease", buyerBal)
	}
	balA, _ := m.Balance(fx.sellerA)
	balB, _ := m.Balance(fx.sellerB)
	if balA <= 0 || balB <= 0 {
		t.Fatalf("seller cuts missing: A=%v B=%v", balA, balB)
	}
	if got := m.TotalSupply(); got != supply {
		t.Fatalf("supply %v after settle, want %v conserved", got, supply)
	}
	for _, sh := range m.Shards() {
		if i := sh.Platform.Arbiter.Ledger.VerifyChain(); i >= 0 {
			t.Fatalf("shard %d audit chain corrupt at %d", sh.Index, i)
		}
	}
	if sh0 := m.Shards()[0]; len(sh0.Engine.XTxHeld()) != 0 {
		t.Fatal("escrow left in flight after commit")
	}
	pending, settled, aborted := m.CoordStats()
	if pending != 0 || settled != 1 || aborted != 0 {
		t.Fatalf("coordinator counters: pending=%d settled=%d aborted=%d", pending, settled, aborted)
	}
	if st := m.Stats(); st.Matched != 1 || st.OpenRequests != 0 {
		t.Fatalf("aggregate Matched = %d, OpenRequests = %d, want 1 (the cross-shard settle) and 0", st.Matched, st.OpenRequests)
	}
	hist := m.Shards()[0].Platform.Arbiter.History()
	if len(hist) != 1 || hist[0].ID != "tx-0001" || hist[0].Mashup == nil || hist[0].Mashup.NumRows() == 0 ||
		len(hist[0].Datasets) != 2 || len(hist[0].SellerCuts) != 2 {
		t.Fatalf("home shard history %+v, want the sale with its mashup, both datasets and both cuts", hist)
	}
	// A cross-shard sale settled up-front: a report on it fails its ticket.
	rtk := mustTk(m.SubmitReport(got.TxID, 100, 100))
	m.TriggerEpoch()
	if r, _ := m.Ticket(rtk); r.Status != engine.TicketFailed {
		t.Fatalf("report on a cross-shard sale: %+v, want failed", r)
	}
}

// TestUnmatchableSpanningWantStaysPending: a spanning want no mashup can
// satisfy yet stays open across rounds instead of failing.
func TestUnmatchableSpanningWantStaysPending(t *testing.T) {
	m, err := Open(Config{Shards: 2, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	fx := newCrossShardFixture(t)
	fx.drive(t, m)

	// Offer far below any posted price: matches nothing, stays pending.
	w, f := joinWant(fx.buyer, 0.01, "a", "b")
	tk := mustTk(m.SubmitRequest(w, f))
	m.TriggerEpoch()
	m.TriggerEpoch()
	got, ok := m.Ticket(tk)
	if !ok || got.Status != engine.TicketApplied {
		t.Fatalf("unmatchable want should stay open: %+v", got)
	}
	if pending, _, _ := m.CoordStats(); pending != 1 {
		t.Fatalf("pending wants = %d, want 1", pending)
	}
	if st := m.Stats(); st.OpenRequests != 1 {
		t.Fatalf("aggregate OpenRequests = %d, want the open cross-shard want", st.OpenRequests)
	}
}

// submitSurface is what a *Market and a bare *engine.Engine have in common:
// the single-shard equivalence tests drive one script through either.
type submitSurface interface {
	SubmitRegister(name string, funds float64) (string, error)
	SubmitShare(seller string, id catalog.DatasetID, rel *relation.Relation,
		meta wtp.DatasetMeta, terms license.Terms) (string, error)
	SubmitRequest(want dod.Want, f *wtp.Function) (string, error)
	TriggerEpoch() (uint64, bool)
}

// driveSingle runs the fixed register / share / request script and returns
// the ticket IDs the surface handed out, in order.
func driveSingle(s submitSurface) []string {
	var ids []string
	request := func(buyer string, price float64) {
		w, f := coverWant(buyer, price, "a", "b")
		ids = append(ids, mustTk(s.SubmitRequest(w, f)))
		s.TriggerEpoch()
	}
	ids = append(ids, mustTk(s.SubmitRegister("b1", 5000)), mustTk(s.SubmitRegister("b2", 3000)))
	ids = append(ids, mustTk(s.SubmitShare("s1", "s1/d0", flatRel("s1/d0", 20),
		wtp.DatasetMeta{Dataset: "s1/d0", HasProvenance: true}, license.Terms{Kind: license.Open})))
	s.TriggerEpoch()
	request("b1", 150)
	request("b2", 120)
	return ids
}

// driveLate is the post-snapshot tail of the durable runs: work that lands
// in the WAL behind the checkpoint.
func driveLate(s submitSurface) {
	mustTk(s.SubmitRegister("late", 777))
	s.TriggerEpoch()
}

// TestSingleShardFederationMatchesBareEngine: a market of one shard IS the
// bare engine — same state bytes, same bare ticket and transaction IDs, and
// in durable mode the same directory layout, so a WAL directory written by
// wal.Boot + a bare engine (every pre-federation -shards 1 gateway) boots
// under federation.Open and the other way round.
func TestSingleShardFederationMatchesBareEngine(t *testing.T) {
	ecfg := engine.Config{}
	popts := core.Options{Design: testDesign}
	bareShard := func(p *core.Platform, e *engine.Engine) *Shard { return &Shard{Platform: p, Engine: e} }
	// sameTickets asserts the market resolves every bare ID to exactly the
	// engine's own ticket: no prefix on the ID or the settled TxID.
	sameTickets := func(t *testing.T, m *Market, e *engine.Engine, ids []string) {
		t.Helper()
		for _, id := range ids {
			want, ok := e.Ticket(id)
			got, gok := m.Ticket(id)
			if !ok || !gok || got != want {
				t.Fatalf("ticket %s: market %+v (ok=%v), engine %+v (ok=%v)", id, got, gok, want, ok)
			}
		}
	}

	t.Run("in-memory", func(t *testing.T) {
		m, err := Open(Config{Shards: 1, Engine: ecfg, Platform: popts})
		if err != nil {
			t.Fatal(err)
		}
		fedIDs := driveSingle(m)
		m.Stop()

		p, err := core.NewPlatform(popts)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(p, ecfg)
		bareIDs := driveSingle(e)
		e.Stop()

		if fmt.Sprint(fedIDs) != fmt.Sprint(bareIDs) {
			t.Fatalf("market handed out %v, bare engine %v", fedIDs, bareIDs)
		}
		sameTickets(t, m, e, bareIDs)
		if fed, bare := shardFingerprint(t, m.Shards()[0]), shardFingerprint(t, bareShard(p, e)); string(fed) != string(bare) {
			t.Fatalf("shards=1 federation diverged from bare engine:\n--- federation\n%s\n--- bare\n%s", fed, bare)
		}
	})

	t.Run("wal.Boot directory boots under federation.Open", func(t *testing.T) {
		dir := t.TempDir()
		p, e, w, _, err := wal.Boot(popts, ecfg, wal.Options{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		ids := driveSingle(e)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.WriteSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		driveLate(e)
		e.Stop()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := shardFingerprint(t, bareShard(p, e))

		m, err := Open(Config{Shards: 1, Dir: dir, Sync: wal.SyncAlways, Engine: ecfg, Platform: popts})
		if err != nil {
			t.Fatalf("federation.Open over a bare-engine WAL dir: %v", err)
		}
		m.Stop()
		if got := shardFingerprint(t, m.Shards()[0]); string(got) != string(want) {
			t.Fatalf("bare WAL dir diverged under federation.Open:\n--- bare\n%s\n--- federation\n%s", want, got)
		}
		sameTickets(t, m, e, ids)
		for _, extra := range []string{"shard-0", "coord.log"} {
			if _, err := os.Stat(filepath.Join(dir, extra)); !os.IsNotExist(err) {
				t.Fatalf("one-shard market created %s in the WAL dir (err=%v)", extra, err)
			}
		}
	})

	t.Run("federation.Open directory boots under wal.Boot", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Shards: 1, Dir: dir, Sync: wal.SyncAlways, Engine: ecfg, Platform: popts}
		m, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveSingle(m)
		if cps, err := m.SnapshotAll(); err != nil || len(cps) != 1 || filepath.Dir(cps[0].Path) != dir {
			t.Fatalf("SnapshotAll = %+v, %v; want one checkpoint directly in %s", cps, err, dir)
		}
		driveLate(m)
		m.Stop()
		want := shardFingerprint(t, m.Shards()[0])

		p, e, w, res, err := wal.Boot(popts, ecfg, wal.Options{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatalf("wal.Boot over a one-shard market's dir: %v", err)
		}
		if res.FromSnapshotSeq == 0 || res.Replayed == 0 {
			t.Fatalf("boot ignored the market's snapshot or WAL tail: %+v", res)
		}
		e.Stop()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := shardFingerprint(t, bareShard(p, e)); string(got) != string(want) {
			t.Fatalf("one-shard market dir diverged under wal.Boot:\n--- federation\n%s\n--- bare\n%s", want, got)
		}
	})
}

// TestShardLabeledMetrics: every shard's per-shard families carry the shard
// label, the unlabeled aggregates exist exactly once, and the federation's
// own families report the cross-shard sales.
func TestShardLabeledMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := Open(Config{Shards: 2, Platform: core.Options{Design: testDesign}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	fx.submitSpanning(t, m)
	m.TriggerEpoch()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`engine_shard_epoch_seconds`,
		`shard="0"`,
		`shard="1"`,
		"engine_epochs_total",
		"engine_matched_total",
		"federation_xtx_committed_total 1",
		"engine_matched_total 1",
		"federation_shards 2",
		"arbiter_round_seconds", // unlabeled histogram shared by both shard engines
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Count(text, "# TYPE engine_matched_total") != 1 {
		t.Error("aggregate family engine_matched_total registered more than once")
	}
	if st := m.Stats(); st.Matched != 1 {
		t.Fatalf("aggregate stats Matched = %d", st.Matched)
	}
}

// TestSingleShardMetricsUnlabelled: a durable one-shard market exposes the
// bare engine's series — the engine and WAL register their own unlabelled
// families (each exactly once), nothing carries a shard label, and the
// federation adds only its own federation_* families.
func TestSingleShardMetricsUnlabelled(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := Open(Config{Shards: 1, Dir: t.TempDir(), Platform: core.Options{Design: testDesign}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	driveSingle(m)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{
		"engine_epochs_total", "engine_matched_total", "engine_price_seconds_total",
		"engine_events_held", "engine_tickets_held", "arbiter_history_held", "ledger_audit_held",
		"engine_log_readback_events_total", "engine_tickets_retired_total",
		"dod_builds_total", "dod_cache_misses_total", "engine_intake_queue_depth",
		"wal_append_seconds", "wal_fsync_seconds", "wal_segments", "federation_shards",
	} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("family %s registered %d times, want once", family, n)
		}
	}
	for _, absent := range []string{"engine_shard_", `shard="0",queue=`} {
		if strings.Contains(text, absent) {
			t.Errorf("one-shard scrape carries shard-labelled series %q", absent)
		}
	}
	if !strings.Contains(text, "engine_matched_total 2") || !strings.Contains(text, "federation_shards 1") {
		t.Errorf("one-shard scrape misses its settles or shard count:\n%s", text)
	}
}

// TestAggregateStatsSumShards: counters sum across shards.
func TestAggregateStatsSumShards(t *testing.T) {
	m, err := Open(Config{Shards: 4, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	// One local settle on each of two different shards.
	for _, shard := range []int{1, 3} {
		b := nameOn(t, fmt.Sprintf("b%d-", shard), shard, 4)
		s := nameOn(t, fmt.Sprintf("s%d-", shard), shard, 4)
		mustTk(m.SubmitRegister(b, 4000))
		openShare(t, m, s, s+"/d0", flatRel(s+"/d0", 20))
		m.TriggerEpoch()
		w, f := coverWant(b, 150, "a", "b")
		mustTk(m.SubmitRequest(w, f))
	}
	m.TriggerEpoch()
	st := m.Stats()
	if st.Matched != 2 {
		t.Fatalf("Matched = %d, want 2 (one per shard)", st.Matched)
	}
	if st.Applied < 4 {
		t.Fatalf("Applied = %d, want >= 4 across shards", st.Applied)
	}
	sums := m.ShardStats()
	if len(sums) != 4 {
		t.Fatalf("ShardStats returned %d entries", len(sums))
	}
	var matched uint64
	for _, s := range sums {
		matched += s.Matched
	}
	if matched != st.Matched {
		t.Fatalf("per-shard matched sum %d != aggregate %d", matched, st.Matched)
	}
}
