package wal

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
	"repro/internal/retain"
	"repro/internal/wtp"
)

// This file is the crash/replay determinism harness: a scripted workload is
// driven against an engine whose WAL persister is killed at chosen event
// seqs (epoch boundaries and mid-epoch), the engine is rebooted from the
// durable prefix, the lost suffix of the script is re-driven, and the final
// state must match an uninterrupted run — byte-identically for crashes at
// epoch boundaries, and identically modulo epoch numbering for mid-epoch
// crashes (re-driven work lands in later epochs, which is visible in epoch
// tags but in nothing else).

const testDesign = "posted-baseline"

// op is one scripted submission.
type op struct {
	kind  string // "register" | "share" | "request" | "report"
	name  string
	funds float64
	ds    string
	rows  int
	offer float64
	cols  []string
	// report: ref is the 0-based global index of the request op whose
	// settled transaction the report targets (resolved through its ticket,
	// so the script never hard-codes transaction IDs).
	ref      int
	reported float64
	trueVal  float64
	// share: valCol, when set, builds a keyed relation (k, valCol) instead of
	// the default (a, b) — datasets then cover only half a request's columns,
	// forcing joined multi-source mashups.
	valCol string
	// request: minSat overrides the 0.5 curve threshold, so half-coverage
	// single-source candidates price to zero and only the join sells.
	minSat float64
	// share: fresh > 0 builds churn share number fresh instead — column names
	// and value ranges disjoint from every other dataset, so it provides no
	// wanted column and adds no join edge.
	fresh int
	// share: terms is the dataset's license (open when unset).
	terms license.Terms
}

// script is the deterministic workload: epochs of ops covering
// registrations, shares, settling requests, a duplicate-registration
// rejection, a ghost-buyer rejection, sub-posted-price offers that stay
// open, and a permanently unmet request.
func script() [][]op {
	return [][]op{
		{ // epoch 1: funding registrations (one duplicate -> rejection)
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 8000},
			{kind: "register", name: "b1", funds: 100}, // duplicate
			{kind: "register", name: "b3", funds: 3000},
		},
		{ // epoch 2: first supply + first demand
			{kind: "share", name: "s1", ds: "s1/d0", rows: 20},
			{kind: "share", name: "s2", ds: "s2/d0", rows: 30},
			{kind: "request", name: "b1", offer: 150, cols: []string{"a", "b"}},
		},
		{ // epoch 3: more demand; one request no supply will ever cover
			{kind: "request", name: "b2", offer: 120, cols: []string{"a", "b"}},
			{kind: "request", name: "b3", offer: 110, cols: []string{"a", "b"}},
			{kind: "request", name: "b2", offer: 60, cols: []string{"never", "supplied"}},
		},
		{ // epoch 4: late supply, ghost buyer, late registration
			{kind: "share", name: "s1", ds: "s1/d1", rows: 25},
			{kind: "request", name: "ghost", offer: 10, cols: []string{"a", "b"}},
			{kind: "register", name: "b4", funds: 1500},
		},
		{ // epoch 5: a below-posted-price offer (stays open) and a match
			{kind: "request", name: "b4", offer: 80, cols: []string{"a", "b"}},
			{kind: "request", name: "b1", offer: 200, cols: []string{"a", "b"}},
		},
	}
}

// expostScript is the ex-post workload: deliveries against escrowed
// deposits, an under-reported value that may be audited, an honest report,
// and one delivery whose buyer never reports — its escrow must survive
// every crash, snapshot and reboot intact.
func expostScript() [][]op {
	return [][]op{
		{ // epoch 1: funding + supply
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 8000},
			{kind: "share", name: "s1", ds: "s1/d0", rows: 20},
		},
		{ // epoch 2: two ex-post deliveries (deposits escrowed)
			{kind: "request", name: "b1", offer: 300, cols: []string{"a", "b"}},
			{kind: "request", name: "b2", offer: 450, cols: []string{"a", "b"}},
		},
		{ // epoch 3: b1 under-reports; more supply arrives
			{kind: "report", ref: 3, reported: 250, trueVal: 320},
			{kind: "share", name: "s2", ds: "s2/d0", rows: 25},
		},
		{ // epoch 4: b2 reports honestly; two more deliveries — one whose
			// buyer never reports, one reported next epoch
			{kind: "report", ref: 4, reported: 440, trueVal: 440},
			{kind: "request", name: "b1", offer: 200, cols: []string{"a", "b"}},
			{kind: "request", name: "b2", offer: 220, cols: []string{"a", "b"}},
		},
		{ // epoch 5: a worthless-data report (clamps to zero, full refund)
			// and a late registration keeping a trailing epoch
			{kind: "report", ref: 9, reported: -60, trueVal: -60},
			{kind: "register", name: "b3", funds: 1000},
		},
	}
}

// joinScript is the sampled-pricing workload: every dataset carries the join
// key k plus ONE of the wanted value columns, so no single source satisfies a
// request and every settlement splits revenue across a 2-source joined mashup
// — the path where permutation-sampled Shapley (and its settlement-derived
// seeding) actually runs.
func joinScript() [][]op {
	return [][]op{
		{ // epoch 1: funding registrations
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 8000},
		},
		{ // epoch 2: split supply (a and b live in different datasets) + demand
			{kind: "share", name: "s1", ds: "s1/d0", rows: 20, valCol: "a"},
			{kind: "share", name: "s2", ds: "s2/d0", rows: 30, valCol: "b"},
			{kind: "request", name: "b1", offer: 150, cols: []string{"a", "b"}, minSat: 0.9},
		},
		{ // epoch 3: more joined demand; one request no supply will ever cover
			{kind: "request", name: "b2", offer: 120, cols: []string{"a", "b"}, minSat: 0.9},
			{kind: "request", name: "b2", offer: 60, cols: []string{"never", "supplied"}},
		},
		{ // epoch 4: a second a-provider (candidate multiplicity) + late buyer
			{kind: "share", name: "s3", ds: "s3/d0", rows: 25, valCol: "a"},
			{kind: "register", name: "b4", funds: 1500},
		},
		{ // epoch 5: a below-posted-price offer (stays open) and a match
			{kind: "request", name: "b4", offer: 80, cols: []string{"a", "b"}, minSat: 0.9},
			{kind: "request", name: "b1", offer: 200, cols: []string{"a", "b"}, minSat: 0.9},
		},
	}
}

// churnScript is joinScript with supply arriving between the requests that
// cannot serve them: fresh shares (no provider, no edge) and a bridge share
// (joins every dataset on k, provides nothing wanted) — the mutations that
// bump the catalog version yet leave the cached ⟨a, b⟩ candidates valid — plus
// one share that does add an a-provider and so must stale them. The live run
// prices retained candidate sets across the former; every reboot starts with
// a cold cache and rebuilds. Both must settle byte-identically.
func churnScript() [][]op {
	return [][]op{
		{ // epoch 1: funding registrations
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 8000},
		},
		{ // epoch 2: split supply + first demand (cold build in every run)
			{kind: "share", name: "s1", ds: "s1/d0", rows: 20, valCol: "a"},
			{kind: "share", name: "s2", ds: "s2/d0", rows: 30, valCol: "b"},
			{kind: "request", name: "b1", offer: 150, cols: []string{"a", "b"}, minSat: 0.9},
		},
		{ // epoch 3: an unrelated share lands before more demand
			{kind: "share", name: "x1", ds: "x1/d", rows: 12, fresh: 1},
			{kind: "request", name: "b2", offer: 120, cols: []string{"a", "b"}, minSat: 0.9},
			{kind: "request", name: "b2", offer: 60, cols: []string{"never", "supplied"}},
		},
		{ // epoch 4: a bridge share and another fresh one around a request
			{kind: "share", name: "s4", ds: "s4/d0", rows: 30, valCol: "z"},
			{kind: "request", name: "b1", offer: 130, cols: []string{"a", "b"}, minSat: 0.9},
			{kind: "share", name: "x2", ds: "x2/d", rows: 12, fresh: 2},
		},
		{ // epoch 5: a second a-provider (stales ⟨a, b⟩) + late buyer
			{kind: "share", name: "s3", ds: "s3/d0", rows: 25, valCol: "a"},
			{kind: "register", name: "b4", funds: 1500},
			{kind: "request", name: "b2", offer: 140, cols: []string{"a", "b"}, minSat: 0.9},
		},
		{ // epoch 6: a below-posted-price offer (stays open), churn, a match
			{kind: "request", name: "b4", offer: 80, cols: []string{"a", "b"}, minSat: 0.9},
			{kind: "share", name: "x3", ds: "x3/d", rows: 12, fresh: 3},
			{kind: "request", name: "b1", offer: 200, cols: []string{"a", "b"}, minSat: 0.9},
		},
	}
}

// licenseScript sells a taxed exclusive dataset and a transfer dataset in
// different rounds, each to a first buyer and again, rounds later, to the
// other (exclusivity caps a round, not the market), around open purchases.
// Every sale sits in its own epoch, so background checkpoints fall between a
// dataset's first and second sale.
func licenseScript() [][]op {
	exclusive := license.Terms{Kind: license.Exclusive, ExclusivityTaxRate: 0.1}
	transfer := license.Terms{Kind: license.Transfer}
	return [][]op{
		{ // epoch 1: funding registrations + supply under three licenses
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 5000},
			{kind: "share", name: "s1", ds: "s1/ex", rows: 12, fresh: 1, terms: exclusive},
			{kind: "share", name: "s2", ds: "s2/tr", rows: 12, fresh: 2, terms: transfer},
			{kind: "share", name: "s3", ds: "s3/open", rows: 20},
		},
		{ // epoch 2: the exclusive dataset's first sale, and an open purchase
			{kind: "request", name: "b1", offer: 150, cols: []string{"xk1", "xv1"}},
			{kind: "request", name: "b2", offer: 120, cols: []string{"a", "b"}},
		},
		{ // epoch 3: the transfer dataset's first sale
			{kind: "request", name: "b2", offer: 130, cols: []string{"xk2", "xv2"}},
		},
		{ // epoch 4: the exclusive dataset sells again; its holder stays b1
			{kind: "request", name: "b2", offer: 140, cols: []string{"xk1", "xv1"}},
		},
		{ // epoch 5: the transfer dataset sells again; a late open buyer
			{kind: "request", name: "b1", offer: 140, cols: []string{"xk2", "xv2"}},
			{kind: "register", name: "b3", funds: 1000},
		},
		{ // epoch 6: the late buyer's open purchase
			{kind: "request", name: "b3", offer: 110, cols: []string{"a", "b"}},
		},
	}
}

// mustTicket unwraps a Submit* result for scripts with no admission control
// configured (where intake can never reject).
func mustTicket(id string, err error) string {
	if err != nil {
		panic(err)
	}
	return id
}

func scriptRelation(name string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

// keyedRelation builds a relation with the shared join key k plus one named
// value column. Every row gets a distinct k — the metadata index drops join
// edges on columns below its MinDistinct cardinality floor.
func keyedRelation(name, valCol string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col(valCol, relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

// freshRelation is churn share n: column names and value ranges no other
// scripted dataset shares.
func freshRelation(name string, n, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col(fmt.Sprintf("xk%d", n), relation.KindInt), relation.Col(fmt.Sprintf("xv%d", n), relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(1000000*n+i)), relation.Float(float64(1000000*n+i)+0.25))
	}
	return r
}

func submitOp(e *engine.Engine, o op) string {
	switch o.kind {
	case "register":
		return mustTicket(e.SubmitRegister(o.name, o.funds))
	case "share":
		rel := scriptRelation(o.ds, o.rows)
		if o.valCol != "" {
			rel = keyedRelation(o.ds, o.valCol, o.rows)
		}
		if o.fresh > 0 {
			rel = freshRelation(o.ds, o.fresh, o.rows)
		}
		terms := o.terms
		if terms.Kind == "" {
			terms.Kind = license.Open
		}
		return mustTicket(e.SubmitShare(o.name, catalog.DatasetID(o.ds), rel,
			wtp.DatasetMeta{Dataset: o.ds, HasProvenance: true}, terms))
	case "request":
		want := dod.Want{Columns: o.cols}
		minSat := o.minSat
		if minSat == 0 {
			minSat = 0.5
		}
		f := &wtp.Function{
			Buyer: o.name,
			Task:  wtp.CoverageTask{Columns: o.cols, WantRows: 1},
			Curve: []wtp.CurvePoint{{MinSatisfaction: minSat, Price: o.offer}},
		}
		return mustTicket(e.SubmitRequest(want, f))
	case "report":
		txID := settledTx(e, expectedTicket(o.ref))
		if txID == "" {
			// Re-driving after a crash that lost the delivery but kept the
			// filing: the open request settles at the next counted epoch, so
			// flush one before the report can address its transaction.
			e.TriggerEpoch()
			txID = settledTx(e, expectedTicket(o.ref))
		}
		if txID == "" {
			panic(fmt.Sprintf("report ref %d has no settled transaction", o.ref))
		}
		return mustTicket(e.SubmitReport(txID, o.reported, o.trueVal))
	}
	panic("unknown op kind " + o.kind)
}

// settledTx resolves a request ticket to its transaction the way a client
// does: from the ticket while the engine holds it, from the event log — the
// record — once the ticket window has retired it.
func settledTx(e *engine.Engine, ticket string) string {
	if tk, _ := e.Ticket(ticket); tk.Status != engine.TicketRetired {
		return tk.TxID
	}
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == engine.EventTxSettled && ev.Ticket == ticket {
			return ev.TxID
		}
	}
	return ""
}

// expectedTicket is the ticket ID the k-th submission (0-based, global
// script order) receives — deterministic because the engine's submission
// counter is restored from the durable log on reboot.
func expectedTicket(k int) string { return fmt.Sprintf("sub-%06d", k+1) }

// faultPersister forwards to the real WAL until `remaining` events have been
// persisted, then fails forever — simulating a crash at an exact event seq.
// The engine's event log wedges on the first error, so the durable log is a
// clean prefix.
type faultPersister struct {
	inner     engine.Persister
	remaining int
}

func (f *faultPersister) PersistRecord(seq int, kind engine.EventKind, rec []byte) (engine.Extent, error) {
	if f.remaining <= 0 {
		return engine.Extent{}, fmt.Errorf("injected crash at seq %d", seq)
	}
	f.remaining--
	return f.inner.PersistRecord(seq, kind, rec)
}

// The reads forward to the real WAL, so the engine under test leaves its
// window's records there and trims its event log to a tail in its first
// life too (until the fault wedges it).

func (f *faultPersister) ReadBack(after, upto int) ([]engine.Event, error) {
	return f.inner.(*Log).ReadBack(after, upto)
}

func (f *faultPersister) ReadRecords(seq int, at, end int64, fn func([]byte) error) error {
	return f.inner.(*Log).ReadRecords(seq, at, end, fn)
}

func (f *faultPersister) Release(upto int) { f.inner.(*Log).Release(upto) }

// tinyWindows forces every retention window — the event-log tail (and its
// chunks), the ticket window, the arbiter's history and the ledger's audit
// chain — far below the scripts' length for the rest of the test, so events
// are served from disk, tickets retire and history and audit entries drop
// within a few epochs. Retention is a pure function of the event stream:
// everything the default-window variants assert must hold unchanged.
func tinyWindows(t *testing.T) {
	t.Helper()
	t.Cleanup(retain.Shrink(func(w *retain.Windows) {
		*w = retain.Windows{EventTail: 8, EventChunk: 8, Tickets: 3, History: 2, Audit: 8}
	}))
}

// driveAll submits every scripted op in order, triggering one epoch per
// group, and asserts ticket IDs land as expected.
func driveAll(t *testing.T, e *engine.Engine, sc [][]op) {
	t.Helper()
	k := 0
	for _, epoch := range sc {
		for _, o := range epoch {
			if got, want := submitOp(e, o), expectedTicket(k); got != want {
				t.Fatalf("submission %d got ticket %s, want %s", k, got, want)
			}
			k++
		}
		e.TriggerEpoch()
	}
}

// redrive completes the script against a rebooted engine: ops whose tickets
// survived in the durable log are skipped, lost ones are resubmitted (and
// must receive their original ticket IDs). Epochs re-trigger only from the
// first incomplete one — triggering a fully durable epoch again would clear
// later requests earlier than the original run did. A fully durable group
// that still holds applied-but-open request tickets lost its settlement
// records to the crash; a flush epoch settles them before any later group
// resubmits, so re-driven filings see the same request/transaction ID
// sequence the baseline assigned (genuinely open requests match nothing in
// the flush, which therefore does not count an epoch). A final trigger
// flushes whatever the last group left pending.
func redrive(t *testing.T, e *engine.Engine, sc [][]op) {
	t.Helper()
	k := 0
	triggering := false
	for _, epoch := range sc {
		openInGroup := false
		for _, o := range epoch {
			id := expectedTicket(k)
			k++
			// Durable: applied, or terminal (failed, done, or since retired
			// from the ticket window).
			if tk, ok := e.Ticket(id); ok && tk.Status != engine.TicketQueued {
				if tk.Status == engine.TicketApplied {
					openInGroup = true
				}
				continue // durable: already applied or terminally failed
			}
			if got := submitOp(e, o); got != id {
				t.Fatalf("re-driven submission got ticket %s, want %s", got, id)
			}
			triggering = true
		}
		if triggering || openInGroup {
			e.TriggerEpoch()
		}
	}
	e.TriggerEpoch()
}

// bookEntries streams a book cut whole: the archived prefix, then the entries
// held in memory.
func bookEntries(t *testing.T, c ledger.BookCut) []ledger.Settlement {
	t.Helper()
	var out []ledger.Settlement
	if err := c.Each(func(s ledger.Settlement) error { out = append(out, s); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// fingerprint canonicalizes the externally observable state of a platform +
// engine pair: balances, catalog (including the data), open requests on both
// layers, ID counters, tickets, the whole settlement book — streamed, however
// much of it the archive holds — and history. With withEpochs=false every
// epoch tag is scrubbed — the only field re-driven work is allowed to move.
func fingerprint(t *testing.T, p *core.Platform, e *engine.Engine, withEpochs bool) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot for fingerprint: %v", err)
	}
	snap.TakenAt = time.Time{}
	book := bookEntries(t, snap.Book)
	if !withEpochs {
		snap.Epoch = 0
		snap.TakenAtSeq = 0
		for i := range snap.Tickets {
			snap.Tickets[i].Epoch = 0
			snap.Tickets[i].MatchedEpoch = 0
		}
		for i := range book {
			book[i].Epoch = 0
		}
		if snap.Policy != nil {
			// Re-driven filings land in later epochs at later event seqs;
			// like the epoch tags, the filing coordinates are the only
			// policy fields mid-epoch crashes may move.
			for i := range snap.Policy.Requests {
				snap.Policy.Requests[i].FiledEpoch = 0
				snap.Policy.Requests[i].FiledSeq = 0
			}
		}
		// Demand signals commit with the epoch-end record; a torn epoch
		// loses its round's increments (and a re-driven run may count a
		// different number of rounds), so they are only byte-comparable at
		// epoch boundaries.
		snap.Platform.Unmet = nil
	}
	var history []string
	for _, tx := range p.Arbiter.History() {
		history = append(history, fmt.Sprintf("%s/%s/%s/%.2f", tx.ID, tx.RequestID, tx.Buyer, tx.Price))
	}
	out, err := json.MarshalIndent(struct {
		Snap      *engine.SnapshotState
		Book      []ledger.Settlement
		History   []string
		Supply    ledger.Currency
		Conserved bool
	}{snap, book, history, p.Arbiter.Ledger.TotalSupply(), snap.Book.Conserved()}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runUninterrupted drives the full script against a WAL-backed engine with
// no fault and returns the platform, engine and the closed WAL's directory.
func runUninterrupted(t *testing.T, platOpts core.Options, sc [][]op, policy SyncPolicy) (*core.Platform, *engine.Engine, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(platOpts)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	driveAll(t, e, sc)
	e.Stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, perr := e.Log().Persisted(); perr != nil {
		t.Fatalf("uninterrupted run wedged its persister: %v", perr)
	}
	return p, e, dir
}

// crashMatrix computes the uninterrupted baseline for one design + script,
// then crashes the persister at every epoch boundary (strong assertion:
// byte-identical state, epochs included) and at mid-epoch seqs — including
// every seq around settlement records (tx-settled and value-reported), so
// a crash between a settlement's WAL append and the surrounding records is
// always exercised — reboots from the durable prefix and re-drives the lost
// part of the script (epoch-insensitive assertion).
// telemetry runs the crashed and rebooted engines with a live obs registry
// on both the engine and the WAL (the baseline stays uninstrumented), proving
// metrics are derived state that never leaks into replayed bytes. deadline
// > 0 runs them with supervised builds (Config.BuildDeadline) enabled while
// the baseline stays unbounded: a deadline generous enough that no build in
// this workload ever trips it must leave every replayed byte untouched.
func crashMatrix(t *testing.T, platOpts core.Options, sc [][]op, policy SyncPolicy, telemetry bool, deadline time.Duration) {
	t.Helper()
	basePlat, baseEng, _ := runUninterrupted(t, platOpts, sc, policy)
	baseStrong := fingerprint(t, basePlat, baseEng, true)
	baseWeak := fingerprint(t, basePlat, baseEng, false)
	baseSupply := basePlat.Arbiter.Ledger.TotalSupply()

	// Crash points from the baseline's event stream: every epoch-end seq is
	// a boundary; seqs just inside an epoch and around every settlement
	// record check the mid-epoch story. 0 = nothing durable at all.
	events := baseEng.Log().Since(0)
	var boundaries []int
	var interesting []int
	for _, ev := range events {
		if ev.Kind == engine.EventEpochEnd {
			boundaries = append(boundaries, ev.Seq)
		}
		if ev.Kind == engine.EventTxSettled || ev.Kind == engine.EventValueReported {
			interesting = append(interesting, ev.Seq-1, ev.Seq, ev.Seq+1)
		}
	}
	if len(boundaries) != len(sc) {
		t.Fatalf("baseline ran %d epochs, want %d", len(boundaries), len(sc))
	}
	isBoundary := map[int]bool{0: true}
	seen := map[int]bool{0: true}
	crashPoints := []int{0}
	for _, b := range boundaries {
		isBoundary[b] = true
		seen[b] = true
		crashPoints = append(crashPoints, b)
	}
	for _, b := range boundaries {
		interesting = append(interesting, b-1, b+2)
	}
	for _, mid := range interesting {
		if mid > 0 && mid < len(events) && !seen[mid] {
			seen[mid] = true
			crashPoints = append(crashPoints, mid)
		}
	}

	for _, crashAfter := range crashPoints {
		name := fmt.Sprintf("crash@%d", crashAfter)
		if isBoundary[crashAfter] {
			name += "-boundary"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var reg *obs.Registry
			if telemetry {
				reg = obs.NewRegistry()
			}
			w, err := Open(Options{Dir: dir, Policy: policy, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewPlatform(platOpts)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New(p, engine.Config{Metrics: reg,
				BuildDeadline: deadline,
				Persister:     &faultPersister{inner: w, remaining: crashAfter}})
			driveAll(t, e, sc)
			if crashAfter < len(events) {
				if _, perr := e.Log().Persisted(); perr == nil {
					t.Fatal("fault persister never fired")
				}
			}
			e.Stop()
			w.Close()

			// Reboot from the durable prefix and finish the script. A fresh
			// registry: metrics are derived state, rebuilt like any other view.
			var reg2 *obs.Registry
			if telemetry {
				reg2 = obs.NewRegistry()
			}
			p2, e2, w2, res, err := Boot(platOpts,
				engine.Config{Metrics: reg2, BuildDeadline: deadline},
				Options{Dir: dir, Policy: policy, Metrics: reg2})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			defer w2.Close()
			if res.Recovered != crashAfter {
				t.Fatalf("recovered %d events, want %d durable", res.Recovered, crashAfter)
			}
			if got := p2.Arbiter.Ledger.TotalSupply(); got > baseSupply {
				t.Fatalf("money created by replay: supply %v > baseline %v", got, baseSupply)
			}
			redrive(t, e2, sc)
			e2.Stop()

			if isBoundary[crashAfter] {
				got := fingerprint(t, p2, e2, true)
				if string(got) != string(baseStrong) {
					t.Fatalf("epoch-boundary crash diverged from uninterrupted run:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
				}
			} else {
				got := fingerprint(t, p2, e2, false)
				if string(got) != string(baseWeak) {
					t.Fatalf("mid-epoch crash diverged (epoch-insensitive):\n--- baseline\n%s\n--- restarted\n%s", baseWeak, got)
				}
			}
			// Escrow conservation: balances plus escrowed deposits add up to
			// exactly the baseline supply once the script is complete.
			if got := p2.Arbiter.Ledger.TotalSupply(); got != baseSupply {
				t.Fatalf("supply diverged after redrive: %v, want %v", got, baseSupply)
			}
			if i := p2.Arbiter.Ledger.VerifyChain(); i >= 0 {
				t.Fatalf("audit chain corrupted at entry %d after replay", i)
			}
			if !e2.Settlements().Cut().Conserved() {
				t.Fatal("settlement conservation violated after replay")
			}
			// Prove telemetry was actually live while the bytes stayed
			// identical: the rebooted registry scraped real activity.
			if telemetry {
				var sb strings.Builder
				if err := reg2.WritePrometheus(&sb); err != nil {
					t.Fatal(err)
				}
				for _, fam := range []string{"engine_epochs_total", "engine_matched_total", "wal_bytes_written_total"} {
					if !strings.Contains(sb.String(), fam) {
						t.Errorf("family %s missing from rebooted registry", fam)
					}
				}
			}
		})
	}
}

// checkpointStages are where a kill can land in one checkpoint cycle: after
// the book archive append, after the tmp file is written and synced but
// before its rename, after the rename but before the archived entries leave
// the book's memory, and after the prune — the last twice more: with a torn
// record appended to the archive past the mark, and with the newest snapshot
// corrupted, so boot has to fall back one checkpoint while the archive runs
// past that checkpoint's mark.
var checkpointStages = []string{"archived", "tmp", "renamed", "pruned", "torn-archive", "corrupt"}

// checkpointMatrix drives the script through a WAL-backed engine that
// checkpoints — cut, write, prune behind — whenever its log has run
// retain.Windows.Checkpoint events past the previous checkpoint, as
// federation.Market's checkpointer does, and kills it at every stage of every
// checkpoint. Each reboot must sweep the tmp file a kill before the rename
// leaves, cut the book archive back to the mark of the newest intact
// checkpoint, come back from that checkpoint plus the WAL segments it does
// not cover, and after re-driving the script match the uninterrupted run byte
// for byte, whole book included.
func checkpointMatrix(t *testing.T, platOpts core.Options, sc [][]op) {
	t.Helper()
	t.Cleanup(retain.Shrink(func(w *retain.Windows) { w.Checkpoint = 5 }))
	basePlat, baseEng, _ := runUninterrupted(t, platOpts, sc, SyncEpoch)
	baseStrong := fingerprint(t, basePlat, baseEng, true)
	opts := func(dir string) Options { return Options{Dir: dir, Policy: SyncEpoch, SegmentBytes: 512} }
	archiveSize := func(dir string) int64 {
		st, err := os.Stat(filepath.Join(dir, bookArchiveName))
		if err != nil {
			return 0
		}
		return st.Size()
	}

	// run drives the script into dir and dies at stage of checkpoint number
	// kill (0 = never). It returns the seqs and book marks of the checkpoints
	// it renamed into place and the durable log head.
	run := func(dir string, kill int, stage string) (written []int, marks []ledger.BookMark, head int) {
		w, err := Open(opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPlatform(platOpts)
		if err != nil {
			t.Fatal(err)
		}
		fp := &faultPersister{inner: w, remaining: 1 << 30}
		e := engine.New(p, engine.Config{Persister: fp,
			BookArchive: bookArchive(filepath.Join(dir, bookArchiveName))})
		cut := 0
		for _, epoch := range sc {
			for _, o := range epoch {
				submitOp(e, o)
			}
			e.TriggerEpoch()
			if e.Log().LastSeq()-cut < retain.Sizes().Checkpoint {
				continue
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			cut = snap.TakenAtSeq
			if n := len(written) + 1; n == kill && (stage == "archived" || stage == "tmp") {
				if stage == "archived" {
					_, err = appendBook(dir, snap.Book)
				} else {
					_, _, err = writeSnapshotTmp(dir, snap)
				}
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			path, mark, err := writeSnapshot(dir, snap)
			if err != nil {
				t.Fatal(err)
			}
			written, marks = append(written, cut), append(marks, mark)
			if len(written) == kill && stage == "renamed" {
				break
			}
			snap.Book.Archived(mark)
			if err := PruneAfterSnapshot(dir, w, true); err != nil {
				t.Fatal(err)
			}
			if len(written) == kill {
				switch stage {
				case "torn-archive":
					f, err := os.OpenFile(filepath.Join(dir, bookArchiveName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					f.Write(appendRecord(nil, []byte(`{"TxID":"tx-torn"}`))[:13])
					f.Close()
				case "corrupt":
					if err := os.WriteFile(path, []byte(`{"taken_at_seq":`), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				break
			}
		}
		fp.remaining = 0 // dead: nothing after this point is durable
		e.Stop()
		w.Close()
		return written, marks, e.Log().LastSeq()
	}

	ckpts, _, _ := run(t.TempDir(), 0, "")
	if len(ckpts) < 3 {
		t.Fatalf("script crosses the checkpoint interval %d times, want several", len(ckpts))
	}
	for kill := 1; kill <= len(ckpts); kill++ {
		for _, stage := range checkpointStages {
			t.Run(fmt.Sprintf("ckpt%d-%s", kill, stage), func(t *testing.T) {
				dir := t.TempDir()
				written, marks, head := run(dir, kill, stage)
				want, wantMark := 0, ledger.BookMark{} // the newest intact checkpoint
				if n := len(written); stage == "corrupt" && n > 1 {
					want, wantMark = written[n-2], marks[n-2]
				} else if stage != "corrupt" && n > 0 {
					want, wantMark = written[n-1], marks[n-1]
				}
				if stage == "corrupt" && len(written) > 1 && marks[len(marks)-1].Count > wantMark.Count &&
					archiveSize(dir) <= wantMark.Bytes {
					t.Fatalf("the archive (%d bytes) does not run past the fallback's mark %+v", archiveSize(dir), wantMark)
				}

				p2, e2, w2, res, err := Boot(platOpts, engine.Config{}, opts(dir))
				if err != nil {
					t.Fatalf("boot: %v", err)
				}
				defer w2.Close()
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpInfix+"*")); len(tmps) > 0 {
					t.Fatalf("boot left snapshot tmp files behind: %v", tmps)
				}
				if res.FromSnapshotSeq != want || res.FromSnapshotSeq+res.Replayed != head {
					t.Fatalf("boot %+v, want snapshot seq %d and the rest up to %d replayed", res, want, head)
				}
				if want > 0 && res.Recovered >= head {
					t.Fatalf("boot from the checkpoint at %d still decoded %d of %d events", want, res.Recovered, head)
				}
				if res.ArchivedSettlements != wantMark.Count || archiveSize(dir) != wantMark.Bytes {
					t.Fatalf("boot left a %d-byte archive and reports %d archived settlements, want the mark %+v",
						archiveSize(dir), res.ArchivedSettlements, wantMark)
				}
				if skipped := len(res.SkippedSnapshots); (stage == "corrupt" && len(written) > 0) != (skipped == 1) || skipped > 1 {
					t.Fatalf("boot skipped snapshots %q", res.SkippedSnapshots)
				}
				redrive(t, e2, sc)
				e2.Stop()
				if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
					t.Fatalf("kill at checkpoint %d (%s) diverged:\n--- baseline\n%s\n--- restarted\n%s", kill, stage, baseStrong, got)
				}
			})
		}
	}
}

// TestCrashReplayDeterminism is the crash/replay harness, table-driven over
// fsync policies on the up-front (posted-price) script.
func TestCrashReplayDeterminism(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncEpoch, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			crashMatrix(t, core.Options{Design: testDesign}, script(), policy, false, 0)
		})
	}
	// The telemetry variant: crashed and rebooted engines run with a live
	// metrics registry on engine and WAL while the baseline stays
	// uninstrumented — byte-identical fingerprints prove metrics are derived
	// state that never reaches the log.
	t.Run("telemetry", func(t *testing.T) {
		crashMatrix(t, core.Options{Design: testDesign}, script(), SyncEpoch, true, 0)
	})
	// The supervised-builds variant: crashed and rebooted engines run with a
	// per-group build deadline while the baseline stays
	// unbounded — deadlines are derived-state plumbing that must never reach
	// a replayed byte.
	t.Run("build-deadline", func(t *testing.T) {
		crashMatrix(t, core.Options{Design: testDesign}, script(), SyncEpoch, false, 2*time.Second)
	})
	// The join variant: the joinScript workload, whose settlements all
	// split revenue across 2-source joined mashups. Byte-identical
	// fingerprints — the snapshot embeds every settlement's SellerCuts —
	// prove multi-seller splits replay exactly through crashes, reboots and
	// re-driven epochs.
	t.Run("join", func(t *testing.T) {
		crashMatrix(t, core.Options{Design: testDesign}, joinScript(), SyncEpoch, false, 0)
	})
	// The churn variants: the uninterrupted baseline carries its cached
	// candidate sets across every share that cannot influence them, while
	// each reboot rebuilds them from a cold cache — byte-identical
	// fingerprints prove footprint retention is optimisation-only.
	t.Run("churn", func(t *testing.T) {
		live, _, _ := runUninterrupted(t, core.Options{Design: testDesign}, churnScript(), SyncEpoch)
		if st := live.DoDCacheStats(); st.Retained == 0 || st.Stale == 0 {
			t.Fatalf("script exercises no retention or no invalidation: %+v", st)
		}
		crashMatrix(t, core.Options{Design: testDesign}, churnScript(), SyncEpoch, false, 0)
	})
	// The bounded-state variant: every engine in the matrix (baseline,
	// crashed, rebooted) keeps only a few events, tickets, transactions and
	// audit entries in memory. Live and every kill point must still agree
	// byte for byte — on the retained tickets and history too.
	t.Run("tiny-tail", func(t *testing.T) {
		tinyWindows(t)
		_, live, _ := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncEpoch)
		if st := live.Stats(); st.EventsHeld >= st.Events || st.TicketsRetired == 0 ||
			st.HistoryHeld >= int(st.Matched) || st.AuditHeld != 8 {
			t.Fatalf("script crosses no window: %+v", st)
		}
		crashMatrix(t, core.Options{Design: testDesign}, script(), SyncEpoch, false, 0)
	})
	// The checkpoint variant: background checkpoints every few events, killed
	// at every stage of every one of them.
	t.Run("checkpoint", func(t *testing.T) {
		checkpointMatrix(t, core.Options{Design: testDesign}, script())
	})
	// The license variant: checkpoints land between the first and second
	// sale of an exclusive and of a transfer dataset, so every kill point
	// boots holders from a snapshot or rebuilds them from the log, and must
	// name the first buyers all the same.
	t.Run("license", func(t *testing.T) {
		live, _, _ := runUninterrupted(t, core.Options{Design: testDesign}, licenseScript(), SyncEpoch)
		if h := live.Arbiter.Licenses.Holders(); h["s1/ex"].Beneficiary != "b1" || h["s2/tr"].Beneficiary != "b2" ||
			live.Arbiter.Settled() != 6 {
			t.Fatalf("script made holders %+v in %d sales, want b1 and b2 in 6", h, live.Arbiter.Settled())
		}
		checkpointMatrix(t, core.Options{Design: testDesign}, licenseScript())
	})
}

// TestExPostCrashReplayDeterminism runs the crash matrix over the ex-post
// design: deliveries escrow deposits, value reports settle them through the
// durable log, and one escrow stays pending to the end. Crash points cover
// every epoch boundary and every seq around the value-reported records —
// the "persister dies between the report's append and the next apply"
// story — and the matrix asserts escrow conservation and byte-identical
// settlement streams (the fingerprint embeds the settlement book) across
// every reboot.
func TestExPostCrashReplayDeterminism(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncEpoch} {
		t.Run(string(policy), func(t *testing.T) {
			crashMatrix(t, core.Options{Design: "expost-audited"}, expostScript(), policy, false, 0)
		})
	}
	t.Run("telemetry", func(t *testing.T) {
		crashMatrix(t, core.Options{Design: "expost-audited"}, expostScript(), SyncEpoch, true, 0)
	})
	t.Run("build-deadline", func(t *testing.T) {
		crashMatrix(t, core.Options{Design: "expost-audited"}, expostScript(), SyncEpoch, false, 2*time.Second)
	})
	// Bounded state: deliveries leave the history window while their escrow
	// is still pending, and the report must settle them all the same.
	t.Run("tiny-tail", func(t *testing.T) {
		tinyWindows(t)
		crashMatrix(t, core.Options{Design: "expost-audited"}, expostScript(), SyncEpoch, false, 0)
	})
	// Checkpoints carry pending escrows: every kill during one must restore
	// them exactly.
	t.Run("checkpoint", func(t *testing.T) {
		checkpointMatrix(t, core.Options{Design: "expost-audited"}, expostScript())
	})
}

// TestCleanRestartIsByteIdentical: a full run, a clean shutdown, a reboot
// from the WAL with nothing to re-drive — the strongest determinism claim.
func TestCleanRestartIsByteIdentical(t *testing.T) {
	t.Run("default", cleanRestart)
	t.Run("tiny-tail", func(t *testing.T) {
		tinyWindows(t)
		cleanRestart(t)
	})
}

// sameCounters asserts the lifetime counters read the same on a rebooted
// engine as on the one that wrote the log — with tiny windows the reboot
// happens long after tickets retired and history dropped, so a length used
// as a counter (submitted = tickets held, transactions = history held) would
// run backwards here.
func sameCounters(t *testing.T, p, p2 *core.Platform, e, e2 *engine.Engine) {
	t.Helper()
	st, st2 := e.Stats(), e2.Stats()
	if st.Submitted != st2.Submitted || st.Matched != st2.Matched || st.Applied != st2.Applied || st.Failed != st2.Failed {
		t.Fatalf("counters moved across the reboot: submitted %d->%d matched %d->%d applied %d->%d failed %d->%d",
			st.Submitted, st2.Submitted, st.Matched, st2.Matched, st.Applied, st2.Applied, st.Failed, st2.Failed)
	}
	if int(st2.Matched) != p2.Arbiter.Settled() {
		t.Fatalf("arbiter counts %d settlements, engine %d matches", p2.Arbiter.Settled(), st2.Matched)
	}
	if p.Summary() != p2.Summary() {
		t.Fatalf("summary moved across the reboot:\n%s\n%s", p.Summary(), p2.Summary())
	}
}

func cleanRestart(t *testing.T) {
	basePlat, baseEng, dir := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncEpoch)
	baseStrong := fingerprint(t, basePlat, baseEng, true)

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Recovered == 0 || res.Replayed != res.Recovered {
		t.Fatalf("unexpected recovery stats: %+v", res)
	}
	e2.Stop()
	if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
		t.Fatalf("clean restart diverged:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
	}
	sameCounters(t, basePlat, p2, baseEng, e2)
}

// TestSnapshotRestartIsByteIdentical checkpoints mid-script, finishes the
// run, reboots — recovery must start from the snapshot, replay only the
// tail, and still match the uninterrupted state byte for byte.
func TestSnapshotRestartIsByteIdentical(t *testing.T) {
	t.Run("default", snapshotRestart)
	// With tiny windows the checkpoint carries a handful of tickets and
	// transactions instead of all of them, and the restored engine must go on
	// retiring and dropping exactly where the uninterrupted one does.
	t.Run("tiny-tail", func(t *testing.T) {
		tinyWindows(t)
		snapshotRestart(t)
	})
}

func snapshotRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})

	sc := script()
	k := 0
	for i, epoch := range sc {
		for _, o := range epoch {
			submitOp(e, o)
			k++
		}
		e.TriggerEpoch()
		if i == 2 { // checkpoint after epoch 3
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Stop()
	w.Close()
	baseStrong := fingerprint(t, p, e, true)

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq == 0 {
		t.Fatal("boot ignored the snapshot")
	}
	if res.Replayed >= res.Recovered {
		t.Fatalf("snapshot did not shorten replay: %+v", res)
	}
	e2.Stop()
	if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
		t.Fatalf("snapshot restart diverged:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
	}
	sameCounters(t, p, p2, e, e2)

	// Cursors must resume gap-free even though state came from the snapshot:
	// the full event history is still served.
	evs := e2.Log().Since(0)
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d after snapshot boot", i, ev.Seq)
		}
	}
}

// TestBootTruncatesCorruptTail: a bit-flipped final record must not be fatal
// on boot — the reader truncates it and the lost suffix can be re-driven.
func TestBootTruncatesCorruptTail(t *testing.T) {
	basePlat, baseEng, dir := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncAlways)
	baseWeak := fingerprint(t, basePlat, baseEng, false)

	segs, err := segmentFiles(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	path := filepath.Join(dir, segs[len(segs)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff // flip a byte inside the final record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatalf("boot over corrupt tail: %v", err)
	}
	defer w2.Close()
	if res.Recovered != baseEng.Log().LastSeq()-1 {
		t.Fatalf("recovered %d events, want %d (one truncated)", res.Recovered, baseEng.Log().LastSeq()-1)
	}
	redrive(t, e2, script())
	e2.Stop()
	if got := fingerprint(t, p2, e2, false); string(got) != string(baseWeak) {
		t.Fatalf("corrupt-tail reboot diverged:\n--- baseline\n%s\n--- restarted\n%s", baseWeak, got)
	}
}

// TestBootArchivesStaleLogBehindSnapshot: a snapshot can outlive the WAL
// records it covers (crash under fsync=off loses the unsynced suffix). Boot
// must not reuse sequence numbers the checkpoint covers: the stale segments
// are archived, the state comes from the snapshot alone, and new appends
// continue at the watermark — still recoverable on a second boot.
func TestBootArchivesStaleLogBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	driveAll(t, e, script())
	e.Stop()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Simulate the fsync=off crash: chop the tail off the last segment so
	// the log ends well short of the snapshot watermark.
	segs, _ := segmentFiles(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncOff})
	if err != nil {
		t.Fatalf("boot over stale log: %v", err)
	}
	if res.FromSnapshotSeq != snap.TakenAtSeq || res.Recovered != 0 {
		t.Fatalf("want snapshot-only recovery, got %+v", res)
	}
	if got := e2.Log().LastSeq(); got != snap.TakenAtSeq {
		t.Fatalf("log resumes at seq %d, want watermark %d", got, snap.TakenAtSeq)
	}
	if w2.LastSeq() != snap.TakenAtSeq {
		t.Fatalf("WAL cursor at %d, want watermark %d", w2.LastSeq(), snap.TakenAtSeq)
	}

	// New work gets post-watermark seqs and survives another restart.
	reg := mustTicket(e2.SubmitRegister("b9", 700))
	e2.TriggerEpoch()
	if tk, _ := e2.Ticket(reg); tk.Status != engine.TicketDone {
		t.Fatalf("post-archive registration failed: %+v", tk)
	}
	e2.Stop()
	w2.Close()
	after := e2.Log().LastSeq()
	if after <= snap.TakenAtSeq {
		t.Fatalf("no post-watermark events appended (seq %d)", after)
	}

	p3, e3, w3, res3, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncOff})
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	defer func() { e3.Stop(); w3.Close() }()
	if res3.Replayed == 0 {
		t.Fatalf("second boot replayed nothing: %+v", res3)
	}
	if !p3.Arbiter.Ledger.Exists("b9") {
		t.Fatal("post-watermark registration lost on second boot")
	}
	if got := e3.Log().LastSeq(); got != after {
		t.Fatalf("second boot log ends at %d, want %d", got, after)
	}
	_ = p2
}

// TestSnapshotRefusedWhenWedged: a checkpoint must never claim seqs the WAL
// does not hold, so a wedged persister makes Snapshot fail.
func TestSnapshotRefusedWhenWedged(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{
		Persister: &faultPersister{inner: w, remaining: 2}})
	defer e.Stop()
	e.SubmitRegister("b1", 100)
	e.SubmitRegister("b2", 100)
	e.TriggerEpoch() // >2 events: the persister wedges mid-epoch
	if _, perr := e.Log().Persisted(); perr == nil {
		t.Fatal("persister should be wedged")
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshot on a wedged engine must be refused")
	}
}

// TestSnapshotCarriesExPostEscrow: a checkpoint taken while ex-post
// settlements are pending serializes the escrowed deposits (it used to be
// refused outright); a boot from that snapshot restores the escrow exactly
// — money conserved to the micro-unit — and the buyer's later async report
// settles against the restored escrow as if the process never restarted.
func TestSnapshotCarriesExPostEscrow(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: "expost-audited"})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	mustTicket(e.SubmitRegister("b1", 5000))
	mustTicket(e.SubmitShare("s1", "s1/d0", scriptRelation("s1/d0", 20),
		wtp.DatasetMeta{Dataset: "s1/d0", HasProvenance: true}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()
	mustTicket(e.SubmitRequest(dod.Want{Columns: []string{"a", "b"}}, &wtp.Function{
		Buyer: "b1",
		Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
		Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 600}},
	}))
	e.TriggerEpoch()
	if p.Arbiter.PendingExPostCount() != 1 {
		t.Fatalf("expected 1 pending ex-post settlement, have %d", p.Arbiter.PendingExPostCount())
	}
	var txID string
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == engine.EventTxSettled {
			txID = ev.TxID
		}
	}
	deposit := p.Arbiter.Ledger.Escrowed(txID)
	if deposit == 0 {
		t.Fatalf("no escrow held for %s", txID)
	}
	supply := p.Arbiter.Ledger.TotalSupply()

	// The checkpoint must succeed with the deposit outstanding and carry it.
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot with pending ex-post escrow refused: %v", err)
	}
	if len(snap.Platform.PendingExPost) != 1 || snap.Platform.PendingExPost[0].Deposit != deposit {
		t.Fatalf("snapshot escrow capture wrong: %+v", snap.Platform.PendingExPost)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	w.Close()
	baseStrong := fingerprint(t, p, e, true)

	p2, e2, w2, res, err := Boot(core.Options{Design: "expost-audited"},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatalf("boot with pending escrow: %v", err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq == 0 {
		t.Fatal("boot ignored the snapshot")
	}
	if got := p2.Arbiter.Ledger.Escrowed(txID); got != deposit {
		t.Fatalf("escrow restored as %v, want %v", got, deposit)
	}
	if got := p2.Arbiter.Ledger.TotalSupply(); got != supply {
		t.Fatalf("supply after restore %v, want %v", got, supply)
	}
	if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
		t.Fatalf("escrow-carrying snapshot boot diverged:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
	}

	// The report settles against the restored escrow through the async path.
	rt := mustTicket(e2.SubmitReport(txID, 480, 480))
	e2.TriggerEpoch()
	tk, _ := e2.Ticket(rt)
	if tk.Status != engine.TicketDone || tk.Price <= 0 {
		t.Fatalf("report on restored escrow failed: %+v", tk)
	}
	if p2.Arbiter.PendingExPostCount() != 0 || p2.Arbiter.Ledger.Escrowed(txID) != 0 {
		t.Fatal("escrow not cleared by the report")
	}
	if got := p2.Arbiter.Ledger.TotalSupply(); got != supply {
		t.Fatalf("supply after report %v, want %v", got, supply)
	}
	e2.Stop()
	if !e2.Settlements().Cut().Conserved() {
		t.Fatal("settlement conservation violated after report")
	}
}

// TestSnapshotExcludesQueuedIntake: a submission still queued at checkpoint
// time has no events and is not durable; the snapshot must exclude both its
// ticket and its seq so a post-restore re-submission gets the original
// ticket ID back.
func TestSnapshotExcludesQueuedIntake(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	first := mustTicket(e.SubmitRegister("b1", 1000)) // sub-000001
	e.TriggerEpoch()
	queued := mustTicket(e.SubmitRegister("b2", 2000)) // sub-000002: queued, no epoch yet

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range snap.Tickets {
		if tk.ID == queued {
			t.Fatalf("queued ticket %s leaked into the snapshot", queued)
		}
	}
	if snap.SubmitSeq != 1 {
		t.Fatalf("snapshot submit seq %d counts queued intake, want 1", snap.SubmitSeq)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	e.Stop() // flushes the queued registration — but the snapshot predates it
	w.Close()

	p2, e2, w2, _, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e2.Stop(); w2.Close() }()
	if tk, ok := e2.Ticket(first); !ok || tk.Status != engine.TicketDone {
		t.Fatalf("evented ticket lost: %v", tk)
	}
	// b2's registration WAS evented after the snapshot (Stop's final
	// epoch), so the full-WAL boot replays it; its ticket resolves and is
	// terminal — never stuck "queued".
	if tk, ok := e2.Ticket(queued); ok && tk.Status == engine.TicketQueued {
		t.Fatalf("restored ticket stuck queued: %+v", tk)
	}
	_ = p2
}

// TestSnapshotQueuedResubmissionKeepsTicketID: when the queued submission's
// events never made it to disk at all, the restored engine hands the
// re-submission the original ticket ID.
func TestSnapshotQueuedResubmissionKeepsTicketID(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	// The persister dies right after the snapshot point: the queued
	// submission's later events are never written.
	e := engine.New(p, engine.Config{Persister: &faultPersister{inner: w, remaining: 3}})
	e.SubmitRegister("b1", 1000) // sub-000001; epoch -> events 1..3
	e.TriggerEpoch()
	queued := mustTicket(e.SubmitRegister("b2", 2000)) // sub-000002: queued
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	e.Stop() // queued reg's events hit the wedged persister and are lost
	w.Close()

	p2, e2, w2, _, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e2.Stop(); w2.Close() }()
	if _, ok := e2.Ticket(queued); ok {
		t.Fatalf("ticket %s should not survive: its submission was never evented", queued)
	}
	if got := mustTicket(e2.SubmitRegister("b2", 2000)); got != queued {
		t.Fatalf("re-submission got ticket %s, want original %s", got, queued)
	}
	e2.TriggerEpoch()
	if tk, _ := e2.Ticket(queued); tk.Status != engine.TicketDone {
		t.Fatalf("re-driven registration failed: %+v", tk)
	}
	if !p2.Arbiter.Ledger.Exists("b2") {
		t.Fatal("re-driven registration not applied")
	}
}

// TestPreWindowSnapshotIsTrimmedOnLoad: a checkpoint written without
// retention — every ticket and every transaction ever, no retired or dropped
// counts, the format of snapshots from before the windows existed — must load
// on an engine that has them, be trimmed to the windows on load, and from
// there behave exactly like an engine that ran with the windows all along:
// same retained tickets and history, same lifetime counters.
func TestPreWindowSnapshotIsTrimmedOnLoad(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	for i, epoch := range script() {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		if i == 3 { // after epoch 4: late settlements are out of ticket order by now
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.TicketsRetired != 0 || snap.Platform.HistoryDropped != 0 || len(snap.Tickets) != 13 {
				t.Fatalf("default windows already dropped state: %d tickets, %d retired, %d dropped",
					len(snap.Tickets), snap.TicketsRetired, snap.Platform.HistoryDropped)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Stop()
	w.Close()

	tinyWindows(t)
	basePlat, baseEng, _ := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncEpoch)
	want := fingerprint(t, basePlat, baseEng, true)

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq == 0 {
		t.Fatal("boot ignored the snapshot")
	}
	e2.Stop()
	if got := fingerprint(t, p2, e2, true); string(got) != string(want) {
		t.Fatalf("trimmed-on-load state differs from a run that always had the windows:\n--- always\n%s\n--- loaded\n%s", want, got)
	}
	sameCounters(t, basePlat, p2, baseEng, e2)
}
