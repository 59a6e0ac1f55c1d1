package federation

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/license"
)

// coordinator clears the wants no single shard can: requests whose wanted
// columns span shard catalogs. Such a want is filed on its buyer's home shard
// (engine.Engine.SubmitCrossShard); each round matches it against a scratch
// platform mirroring every shard's catalog and settles the winning mashup in
// a two-phase commit across the owning shards:
//
//	prepare (home: escrow, xtx-prepared) → commit home (xtx-committed, the
//	decision, synced) → commit each remote shard (xtx-committed, role remote)
//
// The coordinator keeps nothing durable of its own: every fact is an event in
// a shard's WAL (see internal/engine/xtx.go), so recovery is a pure function
// of the replayed shards. A prepare with no decision is aborted (presumed
// abort; the want stays open and is matched again), and a home commit is
// re-driven on each seller shard that has not logged its leg.
type coordinator struct {
	m *Market

	// inDoubt names the sale or want a round left mid-flight (a leg failed,
	// or the crash hook fired). Until the next recovery pass resolves it,
	// SnapshotAll refuses: a checkpoint forgets the home commits whose legs
	// recovery re-drives. Guarded by the Market's coordMu.
	inDoubt string

	// crash, when non-nil, is the test hook simulating a failure at a named
	// 2PC boundary: a non-nil return abandons the settle there, with every
	// durable record exactly as a process death would leave it.
	crash func(point string) error
}

func (c *coordinator) crashAt(point string) error {
	if c.crash == nil {
		return nil
	}
	return c.crash(point)
}

// round resolves what an earlier round left in doubt, then attempts every
// open cross-shard want once, shard by shard in filing order. Caller holds
// the Market's coordinator lock, so rounds, recovery and checkpoint cuts
// never interleave. Returns how many wants reached an outcome.
func (c *coordinator) round() int {
	if c.inDoubt != "" && c.recover() != nil {
		return 0
	}
	settled := 0
	for home, sh := range c.m.shards {
		for _, w := range sh.Engine.CrossWants() {
			done, err := c.settle(home, w)
			if err != nil {
				// A failed leg: the next round (or Open) resolves it.
				return settled
			}
			if done {
				settled++
			}
		}
	}
	return settled
}

// recover resolves every sale an interruption left unfinished, from the
// shards' own state: each prepare with no decision is aborted, and each home
// commit since the last checkpoint is re-driven on the seller shards that
// have not logged their leg. Idempotent; Open runs it after every shard has
// replayed its WAL, and a round after a failed one.
func (c *coordinator) recover() error {
	for home, sh := range c.m.shards {
		for _, xid := range sh.Engine.XTxHeld() {
			if err := sh.Engine.XTxAbort(xid); err != nil {
				return fmt.Errorf("federation: abort xtx %s: %w", c.m.ShardID(home, xid), err)
			}
		}
		for _, cm := range sh.Engine.XTxCommits() {
			if err := c.commitRemotes(home, cm.ID, cm.RemoteCuts, "recover-crash"); err != nil {
				return fmt.Errorf("federation: re-drive xtx %s: %w", c.m.ShardID(home, cm.ID), err)
			}
			sh.Engine.XTxLegsPaid(cm.ID)
		}
	}
	c.inDoubt = ""
	return nil
}

// match runs the want against a scratch platform mirroring every shard's
// catalog: the buyer is funded with their real home-shard balance, every
// shard's datasets are shared in (shard, share) order, and one matching
// round decides mashup, price and cuts. The scratch ledger is discarded —
// only the outcome feeds the 2PC. Returns nil when no acceptable mashup
// exists yet (the want stays open).
func (c *coordinator) match(w engine.CrossWant) (*arbiter.Transaction, error) {
	want, fn, err := w.Spec.Decode()
	if err != nil {
		return nil, err
	}
	p, err := core.NewPlatform(c.m.cfg.Platform)
	if err != nil {
		return nil, err
	}
	home := HomeOf(w.Spec.Buyer, len(c.m.shards))
	funds := c.m.shards[home].Platform.Arbiter.Ledger.Balance(w.Spec.Buyer).Float()
	p.Buyer(w.Spec.Buyer, funds)
	for _, sh := range c.m.shards {
		for _, d := range sh.Platform.DatasetStates() {
			terms := license.Terms{Kind: license.Kind(d.License), ExclusivityTaxRate: d.TaxRate}
			if err := p.ShareDataset(d.Owner, catalog.DatasetID(d.ID), d.Relation, d.Meta, terms); err != nil {
				return nil, err
			}
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

// settle runs one want through match + 2PC. done reports an outcome (the
// sale committed, or the want failed); a still-unmatchable want returns
// (false, nil) and stays open. An error means the attempt stopped mid-flight
// with its durable records in place for recovery.
//
// Ex-post designs settle cross-shard sales up-front at the delivered price:
// the escrowed two-phase commit pays out immediately, and no later value
// report is expected. Documented in the Federation section of the README.
func (c *coordinator) settle(home int, w engine.CrossWant) (bool, error) {
	eng := c.m.shards[home].Engine
	tx, err := c.match(w)
	if err != nil {
		eng.XTxFail(w.Ticket, err)
		return true, nil
	}
	if tx == nil {
		return false, nil
	}
	if err := c.crashAt("begin"); err != nil {
		return false, err
	}
	sale := engine.XTxSale{Price: tx.Price, ArbiterCut: tx.ArbiterCut, Satisfaction: tx.Satisfaction,
		LocalCuts: map[string]float64{}, RemoteCuts: map[string]float64{},
		Datasets: tx.Datasets, Plan: tx.Plan, Mashup: tx.Mashup}
	for seller, cut := range tx.SellerCuts {
		if HomeOf(seller, len(c.m.shards)) == home {
			sale.LocalCuts[seller] = cut
		} else {
			sale.RemoteCuts[seller] = cut
		}
	}
	xid, err := eng.XTxPrepare(w.Ticket, sale)
	if err != nil {
		return true, nil // the buyer no longer covers the price: the home shard failed the want
	}
	c.inDoubt = c.m.ShardID(home, xid)
	if err := c.crashAt("prepared"); err != nil {
		return false, err
	}
	if err := eng.XTxCommitHome(xid); err != nil {
		return false, err
	}
	if err := c.crashAt("crash:home-committed"); err != nil {
		return false, err
	}
	if err := c.commitRemotes(home, xid, sale.RemoteCuts, "crash"); err != nil {
		return false, err
	}
	eng.XTxLegsPaid(xid)
	c.inDoubt = ""
	return true, c.crashAt("done")
}

// commitRemotes pays a committed sale's remote cuts on each seller's home
// shard, in shard order, skipping a shard that has already logged its leg.
// The legs carry the sale's ID in federation form. pass names the pass to
// the crash hook ("crash" live, "recover-crash" in recovery).
func (c *coordinator) commitRemotes(home int, xid string, remote map[string]float64, pass string) error {
	byShard := map[int]map[string]float64{}
	for seller, cut := range remote {
		s := HomeOf(seller, len(c.m.shards))
		if byShard[s] == nil {
			byShard[s] = map[string]float64{}
		}
		byShard[s][seller] = cut
	}
	fed := shardTicket(home, xid)
	for _, s := range slices.Sorted(maps.Keys(byShard)) {
		applied, err := c.m.shards[s].Engine.XTxCommitRemote(fed, byShard[s])
		if err != nil {
			return err
		}
		if applied {
			if err := c.crashAt(fmt.Sprintf("%s:remote-committed-%d", pass, s)); err != nil {
				return err
			}
		}
	}
	return nil
}
