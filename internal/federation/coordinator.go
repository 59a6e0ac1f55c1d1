package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/wtp"
)

// coordinator clears the wants no single shard can: requests whose wanted
// columns span shard catalogs. It keeps a durable queue of such wants (the
// coordinator log), matches each against a scratch platform mirroring every
// shard's catalog, and settles the winning mashup with an escrow-style
// two-phase commit across the owning shards:
//
//	begin (coord log) → prepare (home shard escrow, WAL event)
//	→ decide (coord log) → commit home (WAL event) → commit remotes (WAL
//	events) → want-done → done (coord log)
//
// Every boundary is a durable record, so recovery resolves any in-flight
// transaction from the logs alone: undecided → presumed abort (the want
// retries under a fresh xid); decided-commit → re-drive the remaining legs
// (each shard leg is idempotent, see engine/xtx.go); decided-abort → finish
// the abort. Nothing the coordinator knows lives outside the logs.
type coordinator struct {
	m   *Market
	log *coordLog // nil for in-memory federations

	mu      sync.Mutex // guards the queue, tickets and counters
	wants   []*fedWant
	tickets map[string]*engine.Ticket
	wantSeq uint64
	xidSeq  uint64

	settled uint64 // committed cross-shard transactions
	aborted uint64 // aborted attempts (prepare failures + presumed aborts)

	// inDoubt names the transaction between its begin and done records. A
	// settle that dies there (crash hook or I/O failure) leaves it set: the
	// transaction may sit between two commit legs until the next Open's
	// recovery resolves it, and SnapshotAll refuses to cut until then.
	// Guarded by the Market's coordMu.
	inDoubt string

	// crash, when non-nil, is the test hook simulating process death at a
	// named 2PC boundary: a non-nil return abandons the settle mid-flight
	// with all durable records exactly as a crash would leave them.
	crash func(point string) error
}

// fedWant is one queued cross-shard want.
type fedWant struct {
	ticket   string
	spec     *core.RequestSpec
	priority int
}

func newCoordinator(m *Market, log *coordLog) *coordinator {
	return &coordinator{m: m, log: log, tickets: map[string]*engine.Ticket{}}
}

func (c *coordinator) crashAt(point string) error {
	if c.crash == nil {
		return nil
	}
	return c.crash(point)
}

// enqueue files a cross-shard want: durable first (want record), then
// queued. The returned coordinator ticket ("x:000001") is pollable through
// Market.Ticket like any shard ticket.
func (c *coordinator) enqueue(want dod.Want, fn *wtp.Function, priority int) (string, error) {
	spec, ok := core.EncodeRequest(want, fn)
	if !ok {
		return "", fmt.Errorf("federation: cross-shard requests must carry a serializable task")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wantSeq++
	ticket := fmt.Sprintf("x:%06d", c.wantSeq)
	if err := c.log.append(coordRecord{Type: recWant, Ticket: ticket, Spec: spec, Priority: priority}); err != nil {
		c.wantSeq--
		return "", err
	}
	c.wants = append(c.wants, &fedWant{ticket: ticket, spec: spec, priority: priority})
	c.tickets[ticket] = &engine.Ticket{ID: ticket, Kind: engine.KindRequest,
		Status: engine.TicketQueued, Participant: spec.Buyer, Priority: priority}
	return ticket, nil
}

func (c *coordinator) ticket(id string) (engine.Ticket, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tickets[id]
	if !ok {
		return engine.Ticket{}, false
	}
	return *t, true
}

func (c *coordinator) setTicket(id string, f func(*engine.Ticket)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tickets[id]; ok {
		f(t)
	}
}

func (c *coordinator) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.wants)
}

func (c *coordinator) counters() (settled, aborted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.settled, c.aborted
}

// dropWant removes a want from the pending queue (terminal outcome reached).
func (c *coordinator) dropWant(ticket string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.wants {
		if w.ticket == ticket {
			c.wants = append(c.wants[:i], c.wants[i+1:]...)
			return
		}
	}
}

// round attempts to settle every pending cross-shard want once. Caller holds
// the Market's coordinator lock, so rounds, enlisting snapshots and recovery
// never interleave. Returns how many wants settled.
func (c *coordinator) round() int {
	c.mu.Lock()
	pending := append([]*fedWant(nil), c.wants...)
	c.mu.Unlock()
	settled := 0
	for _, w := range pending {
		done, err := c.settle(w)
		if err != nil {
			// A crash-hook abort or an I/O failure: leave the want pending;
			// recovery (or the next round) picks it back up.
			return settled
		}
		if done {
			settled++
		}
	}
	return settled
}

// match runs the want against a scratch platform mirroring every shard's
// catalog: the buyer is funded with their real home-shard balance, every
// shard's datasets are shared in (shard, share) order, and one matching
// round decides mashup, price and cuts. The scratch ledger is discarded —
// only the outcome numbers feed the 2PC. Returns nil when no acceptable
// mashup exists yet (the want stays pending).
func (c *coordinator) match(w *fedWant) (*arbiter.Transaction, error) {
	want, fn, err := w.spec.Decode()
	if err != nil {
		return nil, err
	}
	opts := c.m.cfg.Platform
	p, err := core.NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	home := HomeOf(w.spec.Buyer, len(c.m.shards))
	funds := c.m.shards[home].Platform.Arbiter.Ledger.Balance(w.spec.Buyer).Float()
	p.Buyer(w.spec.Buyer, funds)
	for _, sh := range c.m.shards {
		for _, d := range sh.Platform.DatasetStates() {
			terms := license.Terms{Kind: license.Kind(d.License), ExclusivityTaxRate: d.TaxRate}
			// Cross-shard ID collisions (two sellers picking the same dataset
			// ID on different shards) lose the later copy here; shard-local
			// clearing is untouched.
			_ = p.ShareDataset(d.Owner, catalog.DatasetID(d.ID), d.Relation, d.Meta, terms)
		}
	}
	if _, err := p.SubmitRequest(want, fn); err != nil {
		return nil, err
	}
	res, err := p.MatchRound()
	if err != nil {
		return nil, err
	}
	if len(res.Transactions) == 0 {
		return nil, nil
	}
	return res.Transactions[0], nil
}

// settle runs one want through match + 2PC. done reports a terminal outcome
// (committed or failed); a still-unmatchable want returns (false, nil) and
// stays queued. An error means the attempt died mid-flight (crash hook or
// I/O) with its durable records in place for recovery.
//
// Ex-post designs settle cross-shard sales up-front at the delivered price:
// the escrowed two-phase commit pays out immediately, and no later value
// report is expected (the report surface stays shard-local). Documented in
// the Federation section of the README.
func (c *coordinator) settle(w *fedWant) (bool, error) {
	tx, err := c.match(w)
	if err != nil {
		// Matching errors are terminal for the want (e.g. an undecodable
		// spec); record the failure so the client sees it.
		return true, c.finishWant(w.ticket, "", 0, err)
	}
	if tx == nil {
		return false, nil
	}
	n := len(c.m.shards)
	home := HomeOf(tx.Buyer, n)
	cutsByShard := map[string]map[string]float64{}
	for seller, cut := range tx.SellerCuts {
		key := strconv.Itoa(HomeOf(seller, n))
		if cutsByShard[key] == nil {
			cutsByShard[key] = map[string]float64{}
		}
		cutsByShard[key][seller] = cut
	}

	c.mu.Lock()
	c.xidSeq++
	xid := fmt.Sprintf("xtx-%06d", c.xidSeq)
	c.mu.Unlock()

	c.inDoubt = xid
	if err := c.log.append(coordRecord{Type: recBegin, Xid: xid, Ticket: w.ticket,
		Buyer: tx.Buyer, Home: home, Price: tx.Price, ArbiterCut: tx.ArbiterCut,
		CutsByShrd: cutsByShard, Datasets: tx.Datasets}); err != nil {
		return false, err
	}
	if err := c.crashAt("begin"); err != nil {
		return false, err
	}

	homeEng := c.m.shards[home].Engine
	if err := homeEng.XTxPrepare(xid, tx.Buyer, tx.Price); err != nil {
		// The buyer's real balance no longer covers the matched price (it
		// changed between match and prepare). Decide abort; the want fails.
		if lerr := c.log.append(coordRecord{Type: recDecide, Xid: xid}); lerr != nil {
			return false, lerr
		}
		_ = homeEng.XTxAbort(xid) // no escrow held; no-op
		c.mu.Lock()
		c.aborted++
		c.mu.Unlock()
		if ferr := c.finishWant(w.ticket, "", 0, err); ferr != nil {
			return false, ferr
		}
		if lerr := c.log.append(coordRecord{Type: recDone, Xid: xid}); lerr != nil {
			return false, lerr
		}
		c.inDoubt = ""
		return true, nil
	}
	if err := c.crashAt("prepared"); err != nil {
		return false, err
	}

	if err := c.log.append(coordRecord{Type: recDecide, Xid: xid, Commit: true}); err != nil {
		return false, err
	}
	if err := c.crashAt("decided"); err != nil {
		return false, err
	}

	if err := c.commitLegs(xid, home, tx.Buyer, tx.Price, tx.ArbiterCut, cutsByShard, "crash"); err != nil {
		return false, err
	}

	if err := c.finishWant(w.ticket, xid, tx.Price, nil); err != nil {
		return false, err
	}
	if err := c.crashAt("want-done"); err != nil {
		return false, err
	}
	if err := c.log.append(coordRecord{Type: recDone, Xid: xid}); err != nil {
		return false, err
	}
	c.inDoubt = ""
	if err := c.crashAt("done"); err != nil {
		return false, err
	}
	c.mu.Lock()
	c.settled++
	c.mu.Unlock()
	return true, nil
}

// commitLegs applies a decided commit to every shard: home first (escrow
// release + local cuts + remote-cut withdrawal), then each remote shard in
// index order. Every leg is idempotent, so recovery re-drives the same
// sequence safely. crashMode selects the hook points ("crash" live,
// "recover-crash" during recovery, so tests can kill either pass).
func (c *coordinator) commitLegs(xid string, home int, buyer string, price, arbiterCut float64,
	cutsByShard map[string]map[string]float64, crashMode string) error {
	homeKey := strconv.Itoa(home)
	local := cutsByShard[homeKey]
	remoteFlat := map[string]float64{}
	var remoteShards []int
	for key, cuts := range cutsByShard {
		if key == homeKey {
			continue
		}
		s, err := strconv.Atoi(key)
		if err != nil || s < 0 || s >= len(c.m.shards) {
			return fmt.Errorf("federation: xtx %s names unknown shard %q", xid, key)
		}
		remoteShards = append(remoteShards, s)
		for seller, cut := range cuts {
			remoteFlat[seller] = cut
		}
	}
	sort.Ints(remoteShards)

	homeEng := c.m.shards[home].Engine
	if homeEng.XTxState(xid) == engine.XTxUnknown {
		// Only reachable from recovery: the shard's prepare event was lost
		// with a non-always sync policy. Replay returned the buyer's funds,
		// so re-holding them succeeds; decided-commit means it did once.
		if err := homeEng.XTxPrepare(xid, buyer, price); err != nil {
			return fmt.Errorf("federation: xtx %s re-prepare: %w", xid, err)
		}
	}
	if err := homeEng.XTxCommitHome(xid, arbiterCut, local, remoteFlat); err != nil {
		return err
	}
	if err := c.crashAt(crashMode + ":home-committed"); err != nil {
		return err
	}
	for _, s := range remoteShards {
		if err := c.m.shards[s].Engine.XTxCommitRemote(xid, cutsByShard[strconv.Itoa(s)]); err != nil {
			return err
		}
		if err := c.crashAt(fmt.Sprintf("%s:remote-committed-%d", crashMode, s)); err != nil {
			return err
		}
	}
	return nil
}

// finishWant records a want's terminal outcome (durable want-done record,
// ticket update, queue removal). err != nil marks the ticket failed.
func (c *coordinator) finishWant(ticket, xid string, price float64, werr error) error {
	rec := coordRecord{Type: recWantDone, Ticket: ticket, TxID: xid, Price: price, Status: "done"}
	if werr != nil {
		rec.Status, rec.Err = "failed", werr.Error()
	}
	if err := c.log.append(rec); err != nil {
		return err
	}
	c.applyWantDone(rec)
	return nil
}

// applyWantDone folds a want-done record into the in-memory queue/tickets
// (shared by the live path and recovery).
func (c *coordinator) applyWantDone(rec coordRecord) {
	c.dropWant(rec.Ticket)
	c.setTicket(rec.Ticket, func(t *engine.Ticket) {
		if rec.Status == "failed" {
			t.Status, t.Err = engine.TicketFailed, rec.Err
			return
		}
		t.Status, t.TxID, t.Price = engine.TicketDone, rec.TxID, rec.Price
	})
}

// xtxRecovery is the per-transaction state recovery folds out of the log.
type xtxRecovery struct {
	begin   coordRecord
	decided bool
	commit  bool
	done    bool
}

// recover rebuilds the coordinator from its log records and resolves every
// in-doubt transaction. Called from Open, after every shard has replayed its
// own WAL (so shard-side xtx state is current), before engines start.
func (c *coordinator) recover(recs []coordRecord) error {
	xtxs := map[string]*xtxRecovery{}
	var xtxOrder []string
	for _, r := range recs {
		switch r.Type {
		case recWant:
			if n := ticketSeq(r.Ticket); n > c.wantSeq {
				c.wantSeq = n
			}
			c.wants = append(c.wants, &fedWant{ticket: r.Ticket, spec: r.Spec, priority: r.Priority})
			c.tickets[r.Ticket] = &engine.Ticket{ID: r.Ticket, Kind: engine.KindRequest,
				Status: engine.TicketQueued, Participant: specBuyer(r.Spec), Priority: r.Priority}
		case recWantDone:
			c.applyWantDone(r)
		case recBegin:
			if n := ticketSeq(r.Xid); n > c.xidSeq {
				c.xidSeq = n
			}
			if xtxs[r.Xid] == nil {
				xtxOrder = append(xtxOrder, r.Xid)
			}
			xtxs[r.Xid] = &xtxRecovery{begin: r}
		case recDecide:
			if x := xtxs[r.Xid]; x != nil {
				x.decided, x.commit = true, r.Commit
			}
		case recDone:
			if x := xtxs[r.Xid]; x != nil {
				x.done = true
				if x.commit {
					c.settled++
				} else {
					c.aborted++
				}
			}
		}
	}
	for _, xid := range xtxOrder {
		x := xtxs[xid]
		if x.done {
			continue
		}
		if err := c.resolve(xid, x); err != nil {
			return fmt.Errorf("federation: recover xtx %s: %w", xid, err)
		}
	}
	return nil
}

// resolve finishes one in-doubt transaction from its durable records.
func (c *coordinator) resolve(xid string, x *xtxRecovery) error {
	b := x.begin
	if b.Home < 0 || b.Home >= len(c.m.shards) {
		return fmt.Errorf("home shard %d out of range", b.Home)
	}
	homeEng := c.m.shards[b.Home].Engine
	if !x.decided {
		// Presumed abort: no durable decision means no shard may have
		// observed a commit; refund any held escrow and close the attempt.
		// The originating want is still pending and retries under a new xid.
		if err := c.log.append(coordRecord{Type: recDecide, Xid: xid}); err != nil {
			return err
		}
		if err := homeEng.XTxAbort(xid); err != nil {
			return err
		}
		c.aborted++
		return c.log.append(coordRecord{Type: recDone, Xid: xid})
	}
	if !x.commit {
		if err := homeEng.XTxAbort(xid); err != nil {
			return err
		}
		c.aborted++
		return c.log.append(coordRecord{Type: recDone, Xid: xid})
	}
	// Decided commit: re-drive every leg (all idempotent), then finish the
	// want if its terminal record did not make it out before the crash.
	if err := c.commitLegs(xid, b.Home, b.Buyer, b.Price, b.ArbiterCut, b.CutsByShrd, "recover-crash"); err != nil {
		return err
	}
	if t, ok := c.ticket(b.Ticket); ok && !t.Status.Terminal() {
		if err := c.finishWant(b.Ticket, xid, b.Price, nil); err != nil {
			return err
		}
	}
	c.settled++
	return c.log.append(coordRecord{Type: recDone, Xid: xid})
}

// ticketSeq parses the numeric suffix of "x:%06d" / "xtx-%06d" IDs.
func ticketSeq(id string) uint64 {
	i := strings.LastIndexAny(id, ":-")
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func specBuyer(spec *core.RequestSpec) string {
	if spec == nil {
		return ""
	}
	return spec.Buyer
}
