package engine

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// This file is one shard's part in a cross-shard sale (internal/federation
// matches the sale and drives the legs). Every durable fact of the sale is an
// event in a shard's own log:
//
//   - request-filed, marked cross-shard (the buyer's home shard): a want no
//     single shard can clear. It gets an ordinary ticket and stays open, but
//     this shard's own rounds never see it: it is not filed with the arbiter.
//   - xtx-prepared (home): the buyer's funds are held in a ledger escrow named
//     after the sale, whose ID the arbiter's transaction counter draws. The
//     record carries the whole sale: price, arbiter cut, seller cuts on this
//     shard and on others, datasets, satisfaction and the want's ticket.
//   - xtx-committed, role home: the commit decision. The escrow pays the
//     arbiter and the local sellers, the remote cuts leave this ledger, the
//     want closes (its ticket reads done once the federation reports the
//     remote legs paid) and the sale enters the history window. The
//     WAL syncs the record before XTxCommitHome returns, so no seller shard
//     is paid before the decision is durable.
//   - xtx-committed, role remote (a seller's shard): the cuts the home shard
//     withdrew arrive, under the sale's ID in federation form ("s0:tx-0005").
//   - xtx-aborted (home): with an ID, the escrow goes back to the buyer and
//     the want stays open to be matched again (the presumed abort of a
//     prepare no commit followed); with an error, the want fails.
//
// Recovery is a pure function of the replayed logs: XTxHeld lists the
// prepares with no decision, and XTxCommits the home commits since the last
// checkpoint, whose remote legs XTxCommitRemote applies only where a seller
// shard has not logged them. Records without a ticket come from releases
// that kept the decisions in a coordinator log of their own; they move money
// on replay and nothing more.

// XTx roles carried by xtx-committed records.
const (
	XTxRoleHome   = "home"
	XTxRoleRemote = "remote"
)

// CrossWant is one open cross-shard want on its home shard.
type CrossWant struct {
	Ticket   string            `json:"ticket"`
	Priority int               `json:"priority,omitempty"`
	Spec     *core.RequestSpec `json:"spec"`
}

// XTxSale is what the federation matched for a cross-shard want: the price
// and its split, the cuts keyed by seller (on this shard or on others), and
// the mashup, which only the live history entry keeps.
type XTxSale struct {
	Price, ArbiterCut, Satisfaction float64
	LocalCuts, RemoteCuts           map[string]float64
	Datasets, Plan                  []string
	Mashup                          *relation.Relation
}

// XTxCommit is a home commit whose remote legs recovery may have to re-drive.
type XTxCommit struct {
	ID         string
	RemoteCuts map[string]float64
}

// xtxHold is a prepared sale on the buyer's home shard, awaiting its decision.
type xtxHold struct {
	ticket string
	buyer  string
	sale   XTxSale
}

// SubmitCrossShard queues a want whose columns span shards on its buyer's
// home shard, like SubmitRequestPriority. Only a want whose task serializes
// can be one: the federation reads it back from the log to match it.
func (e *Engine) SubmitCrossShard(want dod.Want, f *wtp.Function, priority int) (string, error) {
	spec, ok := core.EncodeRequest(want, f)
	if !ok {
		return "", fmt.Errorf("engine: cross-shard requests must carry a serializable task")
	}
	return e.submitRequest(want, f, priority, spec)
}

// fileCrossShard files an applied cross-shard want. Caller holds epochMu.
func (e *Engine) fileCrossShard(ep uint64, s submission) {
	e.stApplied.Add(1)
	e.xwants[s.seq] = &CrossWant{Ticket: s.ticket, Priority: s.priority, Spec: s.cross}
	e.xwantsN.Store(int64(len(e.xwants)))
	e.log.Append(Event{Epoch: ep, Kind: EventRequestFiled, Ticket: s.ticket, Participant: s.fn.Buyer,
		Priority: s.priority, CrossShard: true, Payload: &Payload{Request: s.cross}})
	e.setTicket(s.seq, func(t *heldTicket) { t.status, t.epoch = heldApplied, ep })
}

// CrossWants returns the open cross-shard wants in filing order.
func (e *Engine) CrossWants() []CrossWant {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	out := make([]CrossWant, 0, len(e.xwants))
	for _, seq := range slices.Sorted(maps.Keys(e.xwants)) {
		out = append(out, *e.xwants[seq])
	}
	return out
}

// CrossWantCount returns how many cross-shard wants are open, without the
// epoch lock.
func (e *Engine) CrossWantCount() int { return int(e.xwantsN.Load()) }

// QueuedCrossWants returns how many submitted cross-shard wants the next
// epoch has yet to file.
func (e *Engine) QueuedCrossWants() int { return int(e.xqueued.Load()) }

// XTxCounts returns how many cross-shard sales this shard committed as the
// buyer's home, and how many xtx-aborted records it logged.
func (e *Engine) XTxCounts() (committed, aborted uint64) {
	return e.stXCommitted.Load(), e.stXAborted.Load()
}

// XTxPrepare holds the price of a sale matched for an open cross-shard want
// in a ledger escrow and logs the prepared record, returning the sale's ID.
// If the buyer can no longer cover the price, it fails the want instead.
func (e *Engine) XTxPrepare(ticket string, sale XTxSale) (string, error) {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	seq := ticketSeq(ticket)
	w := e.xwants[seq]
	if w == nil {
		return "", fmt.Errorf("engine: no open cross-shard want %s", ticket)
	}
	xid, err := e.platform.Arbiter.HoldCrossShard(w.Spec.Buyer, sale.Price)
	if err != nil {
		e.failCrossWant(seq, w, err)
		return "", err
	}
	e.xtxHeld[xid] = &xtxHold{ticket: ticket, buyer: w.Spec.Buyer, sale: sale}
	e.log.Append(Event{Epoch: e.epoch.Load(), Kind: EventXTxPrepared, TxID: xid, Ticket: ticket,
		Participant: w.Spec.Buyer, Price: sale.Price, ArbiterCut: sale.ArbiterCut,
		SellerCuts: sale.LocalCuts, RemoteCuts: sale.RemoteCuts, Satisfaction: sale.Satisfaction,
		Datasets: sale.Datasets, XTxRole: XTxRoleHome})
	return xid, nil
}

// XTxFail fails an open cross-shard want whose matching failed.
func (e *Engine) XTxFail(ticket string, err error) {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	if seq := ticketSeq(ticket); e.xwants[seq] != nil {
		e.failCrossWant(seq, e.xwants[seq], err)
	}
}

// failCrossWant logs and applies a want's failure. Caller holds epochMu.
func (e *Engine) failCrossWant(seq uint64, w *CrossWant, err error) {
	e.log.Append(Event{Epoch: e.epoch.Load(), Kind: EventXTxAborted, Ticket: w.Ticket,
		Participant: w.Spec.Buyer, Err: err.Error()})
	e.closeCrossWant(seq, func(t *heldTicket) { t.status, t.err = heldFailed, err.Error() })
	e.stFailed.Add(1)
	e.stXAborted.Add(1)
	e.m.tracer.Drop(w.Ticket)
}

// closeCrossWant drops an open cross-shard want and sets its ticket's final
// state. Caller holds epochMu.
func (e *Engine) closeCrossWant(seq uint64, f func(*heldTicket)) {
	delete(e.xwants, seq)
	e.xwantsN.Store(int64(len(e.xwants)))
	e.setTicket(seq, f)
}

// XTxCommitHome applies the commit decision on the buyer's home shard and
// returns once the record is durable: the escrow pays the arbiter cut and the
// local sellers, the remote cuts' micro-units leave this ledger (they reach
// the sellers' shards through XTxCommitRemote), the want closes with the sale
// and the sale, mashup included, enters the history window. The want's
// ticket reads applied until XTxLegsPaid: a client told the sale is done
// finds every seller paid.
func (e *Engine) XTxCommitHome(xid string) error {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	h := e.xtxHeld[xid]
	if h == nil {
		return fmt.Errorf("engine: xtx %s not prepared", xid)
	}
	ev := Event{Epoch: e.epoch.Load(), Kind: EventXTxCommitted, TxID: xid, Ticket: h.ticket,
		Participant: h.buyer, Price: h.sale.Price, ArbiterCut: h.sale.ArbiterCut,
		SellerCuts: h.sale.LocalCuts, RemoteCuts: h.sale.RemoteCuts, XTxRole: XTxRoleHome}
	if err := e.commitHome(ev, h); err != nil {
		return err
	}
	e.stMatched.Add(1)
	e.stXCommitted.Add(1)
	if e.m.on() {
		e.m.tracer.Finish(h.ticket, time.Now())
	}
	e.log.Append(ev)
	if _, err := e.log.Persisted(); err != nil {
		return fmt.Errorf("engine: xtx %s commit is not durable: %w", xid, err)
	}
	e.xtxCommits = append(e.xtxCommits, XTxCommit{ID: xid, RemoteCuts: h.sale.RemoteCuts})
	return nil
}

// commitHome applies a home commit, live or replayed, whose prepare is h.
// A record without a ticket only moves money. Caller holds epochMu.
func (e *Engine) commitHome(ev Event, h *xtxHold) error {
	if err := e.platform.XTxCommitHome(ev.TxID, ev.Price, ev.SellerCuts, ev.RemoteCuts); err != nil {
		return err
	}
	delete(e.xtxHeld, ev.TxID)
	if ev.Ticket == "" {
		return nil
	}
	if h == nil {
		return fmt.Errorf("engine: xtx %s committed without its prepare", ev.TxID)
	}
	cuts := maps.Clone(ev.SellerCuts)
	if cuts == nil {
		cuts = map[string]float64{}
	}
	maps.Copy(cuts, ev.RemoteCuts)
	e.platform.Arbiter.RecordCrossShard(&arbiter.Transaction{ID: ev.TxID, Buyer: ev.Participant,
		Mashup: h.sale.Mashup, Datasets: h.sale.Datasets, Plan: h.sale.Plan,
		Satisfaction: h.sale.Satisfaction, Price: ev.Price, ArbiterCut: ev.ArbiterCut, SellerCuts: cuts})
	seq := ticketSeq(ev.Ticket)
	e.tmu.Lock()
	e.xlegs[seq] = ev.TxID
	e.tmu.Unlock()
	e.closeCrossWant(seq, func(t *heldTicket) {
		t.status, t.txID, t.price, t.matchedEpoch = heldDone, ev.TxID, ev.Price, ev.Epoch
	})
	return nil
}

// XTxLegsPaid tells the home shard that every remote leg of its committed
// sale xid is applied, so the want's ticket reads done from now on. The
// federation calls it after the legs, live and when recovery re-drives them;
// it is a no-op for an ID with no legs outstanding.
func (e *Engine) XTxLegsPaid(xid string) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	for seq, id := range e.xlegs {
		if id == xid {
			delete(e.xlegs, seq)
		}
	}
}

// XTxCommitRemote applies a commit decision on a seller's shard: its
// sellers are deposited their cuts. xid is the sale's ID in federation form,
// "<stream>-<n>"; the legs of one stream reach a shard in the order of n, so
// the newest n logged per stream tells which legs this shard already holds.
// It reports whether it applied the leg: false when the shard had.
func (e *Engine) XTxCommitRemote(xid string, cuts map[string]float64) (bool, error) {
	stream, n, ok := xtxNumber(xid)
	if !ok {
		return false, fmt.Errorf("engine: xtx ID %q has no number", xid)
	}
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	if n <= e.xtxApplied[stream] {
		return false, nil
	}
	if err := e.platform.XTxCommitRemote(xid, cuts); err != nil {
		return false, err
	}
	e.xtxApplied[stream] = n
	e.log.Append(Event{Epoch: e.epoch.Load(), Kind: EventXTxCommitted, TxID: xid,
		SellerCuts: cuts, XTxRole: XTxRoleRemote})
	return true, nil
}

// xtxNumber splits a sale's ID at its last '-' into its stream and number.
func xtxNumber(xid string) (string, uint64, bool) {
	i := strings.LastIndexByte(xid, '-')
	n, err := strconv.ParseUint(xid[i+1:], 10, 64)
	return xid[:max(i, 0)], n, i > 0 && err == nil
}

// XTxAbort applies the presumed abort of a prepare no commit followed: the
// escrow refunds the buyer in full and the want stays open. No-op for an ID
// that is not prepared.
func (e *Engine) XTxAbort(xid string) error {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	h := e.xtxHeld[xid]
	if h == nil {
		return nil
	}
	if err := e.platform.XTxAbort(xid); err != nil {
		return err
	}
	delete(e.xtxHeld, xid)
	e.stXAborted.Add(1)
	e.log.Append(Event{Epoch: e.epoch.Load(), Kind: EventXTxAborted, TxID: xid, Ticket: h.ticket,
		Participant: h.buyer, Price: h.sale.Price, XTxRole: XTxRoleHome})
	return nil
}

// XTxHeld returns the IDs of the prepared sales awaiting a decision, in the
// order their numbers were drawn.
func (e *Engine) XTxHeld() []string {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	return slices.SortedFunc(maps.Keys(e.xtxHeld), func(a, b string) int {
		_, n, _ := xtxNumber(a)
		_, m, _ := xtxNumber(b)
		return int(n) - int(m)
	})
}

// XTxCommits returns this shard's home commits since its last checkpoint
// cut, in commit order. A cut forgets them: the federation takes one only
// when every remote leg is logged, and a restore starts without them.
func (e *Engine) XTxCommits() []XTxCommit {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	return slices.Clone(e.xtxCommits)
}

// replayXTx applies one recovered xtx record. Caller holds no lock (replay
// runs before the engine is shared).
func (e *Engine) replayXTx(ev Event, c *Counters) error {
	switch {
	case ev.Kind == EventXTxPrepared:
		if err := e.platform.XTxPrepare(ev.TxID, ev.Participant, ev.Price); err != nil {
			return err
		}
		if ev.Ticket != "" {
			_, n, _ := xtxNumber(ev.TxID)
			e.platform.Arbiter.RestoreNextID(int(n))
		}
		e.xtxHeld[ev.TxID] = &xtxHold{ticket: ev.Ticket, buyer: ev.Participant, sale: XTxSale{
			Price: ev.Price, ArbiterCut: ev.ArbiterCut, Satisfaction: ev.Satisfaction,
			LocalCuts: ev.SellerCuts, RemoteCuts: ev.RemoteCuts, Datasets: ev.Datasets}}

	case ev.Kind == EventXTxCommitted && ev.XTxRole == XTxRoleRemote:
		if err := e.platform.XTxCommitRemote(ev.TxID, ev.SellerCuts); err != nil {
			return err
		}
		if stream, n, ok := xtxNumber(ev.TxID); ok && n > e.xtxApplied[stream] {
			e.xtxApplied[stream] = n
		}

	case ev.Kind == EventXTxCommitted:
		if err := e.commitHome(ev, e.xtxHeld[ev.TxID]); err != nil {
			return err
		}
		c.XTxCommitted++
		if ev.Ticket != "" {
			c.Matched++
			e.xtxCommits = append(e.xtxCommits, XTxCommit{ID: ev.TxID, RemoteCuts: ev.RemoteCuts})
		}

	case ev.Kind == EventXTxAborted:
		if ev.TxID != "" {
			if err := e.platform.XTxAbort(ev.TxID); err != nil {
				return err
			}
			delete(e.xtxHeld, ev.TxID)
		}
		c.XTxAborted++
		if seq := ticketSeq(ev.Ticket); ev.Err != "" && e.xwants[seq] != nil {
			c.Failed++
			e.closeCrossWant(seq, func(t *heldTicket) { t.status, t.err = heldFailed, ev.Err })
		}
	}
	return nil
}

// replayCrossWant re-files a recovered cross-shard want. Caller holds no lock.
func (e *Engine) replayCrossWant(ev Event, seq uint64) error {
	if ev.Payload == nil || ev.Payload.Request == nil {
		return fmt.Errorf("cross-shard request-filed event without its request")
	}
	e.xwants[seq] = &CrossWant{Ticket: ev.Ticket, Priority: ev.Priority, Spec: ev.Payload.Request}
	e.xwantsN.Store(int64(len(e.xwants)))
	e.setTicket(seq, func(t *heldTicket) {
		t.status, t.epoch, t.priority = heldApplied, ev.Epoch, int32(ev.Priority)
	})
	return nil
}
