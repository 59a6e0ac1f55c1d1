package arbiter

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/market"
	"repro/internal/wtp"
)

// This file is the arbiter's durability seam: the hooks the engine's WAL
// replay (internal/engine, internal/wal) and the platform snapshot
// (internal/core) use to rebuild arbiter state without re-running the
// matching pipeline. Replay applies the *outcome* recorded in the event log —
// request filings under their original IDs and settlement transfers — so a
// restarted arbiter reaches the same requests, balances, licenses and
// history skeleton as the uninterrupted run.

// OpenRequestStates returns the open requests in filing order (unlike
// OpenRequests, which returns only IDs). The slice holds copies; the WTP
// pointers are shared (functions are immutable after submission).
func (a *Arbiter) OpenRequestStates() []Request {
	a.mu.Lock()
	defer a.mu.Unlock()
	open := a.openLocked()
	out := make([]Request, len(open))
	for i, r := range open {
		out[i] = *r
	}
	return out
}

// SharedIDs returns dataset IDs in share order — the order replays must
// re-ingest them so profile indexing is deterministic.
func (a *Arbiter) SharedIDs() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.shareOrder...)
}

// MetaFor returns the recorded metadata of a shared dataset.
func (a *Arbiter) MetaFor(id string) wtp.DatasetMeta {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.metas[id]
}

// PendingExPostCount reports how many delivered-but-unpaid ex-post
// transactions are outstanding. Their escrowed deposits travel in snapshots
// as PendingEscrows and clear when the buyer's value report settles.
func (a *Arbiter) PendingExPostCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pendingExPost)
}

// PendingEscrow is the durable form of one delivered-but-unreported ex-post
// transaction: the escrowed deposit and who funded it. Snapshots carry the
// pending set (core.PlatformSnapshot.PendingExPost) so a checkpoint taken
// while deposits are outstanding restores them exactly.
type PendingEscrow struct {
	TxID    string          `json:"tx_id"`
	Buyer   string          `json:"buyer"`
	Deposit ledger.Currency `json:"deposit"`
	// Shares are the delivery-time revenue fractions the report settles by
	// (see Transaction.ExPostShares).
	Shares map[string]float64 `json:"shares,omitempty"`
	// RequestID names the request the delivery answered. It is carried only
	// for a delivery whose transaction has left the history window; while it
	// is still there, restore reads it from the history entry.
	RequestID string `json:"request_id,omitempty"`
}

// PendingEscrows returns the pending ex-post set in TxID order for
// snapshots.
func (a *Arbiter) PendingEscrows() []PendingEscrow {
	a.mu.Lock()
	defer a.mu.Unlock()
	held := make(map[*Transaction]bool, len(a.history))
	for _, tx := range a.history {
		held[tx] = true
	}
	out := make([]PendingEscrow, 0, len(a.pendingExPost))
	for txID, st := range a.pendingExPost {
		pe := PendingEscrow{TxID: txID, Buyer: st.buyer, Deposit: st.deposit, Shares: st.fracs}
		if !held[st.tx] {
			pe.RequestID = st.tx.RequestID
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TxID < out[j].TxID })
	if len(out) == 0 {
		return nil
	}
	return out
}

// RestorePendingEscrows re-seeds the pending ex-post set from a snapshot:
// the ledger escrow is recreated without debiting the buyer (snapshot
// balances were taken after the original Hold), and the pending entry is
// wired to the restored history transaction so a later report updates it in
// place — or, when the delivery has left the history window, to a skeleton
// rebuilt from the escrow record itself. Call after RestoreHistory.
func (a *Arbiter) RestorePendingEscrows(pes []PendingEscrow) error {
	if len(pes) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	byTx := make(map[string]*Transaction, len(a.history))
	for _, tx := range a.history {
		byTx[tx.ID] = tx
	}
	for _, pe := range pes {
		tx, ok := byTx[pe.TxID]
		if !ok {
			tx = &Transaction{ID: pe.TxID, RequestID: pe.RequestID, Buyer: pe.Buyer,
				SellerCuts: map[string]float64{}, ExPost: true, ExPostShares: pe.Shares}
		}
		if err := a.Ledger.RestoreEscrow(pe.TxID, pe.Buyer, pe.Deposit); err != nil {
			return fmt.Errorf("arbiter: restore escrow %s: %w", pe.TxID, err)
		}
		a.pendingExPost[pe.TxID] = &exPostState{tx: tx, deposit: pe.Deposit, buyer: pe.Buyer, fracs: pe.Shares}
	}
	return nil
}

// PurchaseCounts returns the purchase history MayResell reads — buyer ->
// dataset -> times bought — as a copy for snapshots. It is
// buyers × datasets in size, not one entry per sale.
func (a *Arbiter) PurchaseCounts() map[string]map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.purchases) == 0 {
		return nil
	}
	out := make(map[string]map[string]int, len(a.purchases))
	for buyer, bought := range a.purchases {
		out[buyer] = maps.Clone(bought)
	}
	return out
}

// RestorePurchases reinstates a snapshot's purchase history, so MayResell
// answers after a restore exactly as in the uninterrupted run.
func (a *Arbiter) RestorePurchases(counts map[string]map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for buyer, bought := range counts {
		a.purchases[buyer] = maps.Clone(bought)
	}
}

// RngState reads the audit RNG for snapshots; RestoreRngState reinstates it
// so post-restore audit decisions match the uninterrupted run.
func (a *Arbiter) RngState() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rng
}

// RestoreRngState reinstates a snapshotted audit RNG. A zero state is
// ignored: xorshift64 never reaches zero from the nonzero seed, so zero
// only means the snapshot predates RNG capture.
func (a *Arbiter) RestoreRngState(s uint64) {
	if s == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rng = s
}

// ReplayNextID reads the request/transaction ID counter for snapshots.
func (a *Arbiter) ReplayNextID() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextID
}

// RestoreNextID raises the ID counter to at least n, so IDs assigned after a
// restore never collide with logged ones.
func (a *Arbiter) RestoreNextID(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.nextID {
		a.nextID = n
	}
}

// bumpNextID parses the numeric suffix of a logged ID ("req-0007",
// "tx-0012") and raises the counter past it. Caller holds a.mu.
func (a *Arbiter) bumpNextID(id string) {
	if n, ok := idNum(id); ok && n > a.nextID {
		a.nextID = n
	}
}

// idNum parses the numeric suffix of an arbiter-assigned ID.
func idNum(id string) (int, bool) {
	n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
	return n, err == nil
}

// RestoreRequest re-files a request under its original ID. Unlike
// SubmitRequest it does not assign a fresh ID: durable logs and snapshots
// record the ID the original filing got, and replay must reproduce it so
// settlements and tickets keep pointing at the right request.
func (a *Arbiter) RestoreRequest(id string, want dod.Want, f *wtp.Function) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if len(want.Columns) == 0 {
		return fmt.Errorf("arbiter: request has no wanted columns")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Settled requests leave reqByID, so the ID counter backs the duplicate
	// check. It rests on one invariant: requests and transactions draw their
	// numbers from the same counter in the order their events are logged
	// (and snapshots list open requests in filing order, before the history
	// and the counter are restored), so a faithful replay meets every filing
	// before any higher-numbered ID, however filings and settlements
	// interleave. A number at or below the counter has been handed out.
	if n, ok := idNum(id); a.reqByID[id] != nil || (ok && n <= a.nextID) {
		return fmt.Errorf("arbiter: request %q already filed", id)
	}
	a.bumpNextID(id)
	a.fileRequestLocked(&Request{ID: id, Want: want, WTP: f, Open: true})
	return nil
}

// ReplayedSettlement is the durable skeleton of one settled sale, as carried
// by a tx-settled event. It holds everything settle() moved through the
// ledger, but not the mashup itself — replayed history entries have a nil
// Mashup and Plan.
type ReplayedSettlement struct {
	TxID         string             `json:"tx_id"`
	RequestID    string             `json:"request_id,omitempty"`
	Buyer        string             `json:"buyer"`
	Price        float64            `json:"price"`
	ArbiterCut   float64            `json:"arbiter_cut,omitempty"`
	SellerCuts   map[string]float64 `json:"seller_cuts,omitempty"`
	Satisfaction float64            `json:"satisfaction,omitempty"`
	Datasets     []string           `json:"datasets,omitempty"`
	ExPost       bool               `json:"ex_post,omitempty"`
	// ExPostShares are the delivery-time revenue fractions (ex-post sales
	// only) the later report settles by; see Transaction.ExPostShares.
	ExPostShares map[string]float64 `json:"ex_post_shares,omitempty"`
}

// HistorySkeletons returns the retained transaction history (see History)
// in its durable form (no mashup or plan) for snapshots.
func (a *Arbiter) HistorySkeletons() []ReplayedSettlement {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ReplayedSettlement, 0, len(a.history))
	for _, tx := range a.history {
		out = append(out, ReplayedSettlement{
			TxID:         tx.ID,
			RequestID:    tx.RequestID,
			Buyer:        tx.Buyer,
			Price:        tx.Price,
			ArbiterCut:   tx.ArbiterCut,
			SellerCuts:   tx.SellerCuts,
			Satisfaction: tx.Satisfaction,
			Datasets:     tx.Datasets,
			ExPost:       tx.ExPost,
			ExPostShares: tx.ExPostShares,
		})
	}
	return out
}

// RestoreHistory re-seeds the transaction history from snapshot skeletons;
// dropped is how many older transactions the snapshot's window had already
// let go. Purely archival: the ledger effects of these transactions are
// already in the snapshot's balances, so nothing is transferred, and their
// purchases are in the snapshot's purchase history (RestorePurchases). The ID
// counter is raised past every restored transaction. A snapshot from before
// the window existed carries the whole history; it is trimmed here.
func (a *Arbiter) RestoreHistory(skels []ReplayedSettlement, dropped int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.settled += dropped
	for _, rs := range skels {
		a.bumpNextID(rs.TxID)
		cuts := map[string]float64{}
		for s, c := range rs.SellerCuts {
			cuts[s] = c
		}
		a.recordTx(&Transaction{
			ID:           rs.TxID,
			RequestID:    rs.RequestID,
			Buyer:        rs.Buyer,
			Datasets:     append([]string(nil), rs.Datasets...),
			Satisfaction: rs.Satisfaction,
			Price:        rs.Price,
			ArbiterCut:   rs.ArbiterCut,
			SellerCuts:   cuts,
			ExPost:       rs.ExPost,
			ExPostShares: rs.ExPostShares,
		})
	}
}

// ReplaySettlement re-applies one settled sale from the durable event log:
// closes the request, repeats the escrow hold / release / revenue fan-out
// with the logged amounts (micro-unit identical to the original run),
// re-issues licenses — so a dataset's license holder is the one the live run
// recorded — and records the purchase. Ex-post sales re-escrow the
// deposit and return to the pending set with the logged delivery-time
// revenue fractions, so a later report splits exactly as the uninterrupted
// run would have.
func (a *Arbiter) ReplaySettlement(rs ReplayedSettlement) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r := a.reqByID[rs.RequestID]; r != nil {
		a.closeRequest(r)
	}
	a.bumpNextID(rs.TxID)

	tx := &Transaction{
		ID:           rs.TxID,
		RequestID:    rs.RequestID,
		Buyer:        rs.Buyer,
		Datasets:     append([]string(nil), rs.Datasets...),
		Satisfaction: rs.Satisfaction,
		Price:        rs.Price,
		SellerCuts:   map[string]float64{},
	}

	if rs.ExPost {
		dep := ledger.FromFloat(rs.Price)
		if mech, ok := a.Design.Mechanism.(market.ExPost); ok && mech.Deposit > 0 {
			dep = ledger.FromFloat(mech.Deposit)
		}
		if err := a.Ledger.Hold(rs.TxID, rs.Buyer, dep, "ex-post deposit (replay)"); err != nil {
			return err
		}
		tx.ExPost = true
		tx.ExPostShares = rs.ExPostShares
		a.pendingExPost[rs.TxID] = &exPostState{tx: tx, deposit: dep, buyer: rs.Buyer, fracs: rs.ExPostShares}
	} else {
		price := ledger.FromFloat(rs.Price)
		if err := a.Ledger.Hold(rs.TxID, rs.Buyer, price, "purchase (replay)"); err != nil {
			return err
		}
		if err := a.paySplit(rs.TxID, a.Ledger.Escrowed(rs.TxID), rs.SellerCuts); err != nil {
			return err
		}
		tx.ArbiterCut = rs.ArbiterCut
		for s, c := range rs.SellerCuts {
			tx.SellerCuts[s] = c
		}
	}

	a.issueLicenses(rs.Datasets, rs.Buyer, rs.Price)
	a.recordPurchase(rs.Buyer, rs.Datasets)
	a.recordTx(tx)
	return nil
}

// ReplayedReport is the durable skeleton of one ex-post report settlement,
// as carried by a value-reported event: the realized payment and revenue
// fan-out SettleReport moved through the ledger.
type ReplayedReport struct {
	TxID       string             `json:"tx_id"`
	Paid       float64            `json:"paid"`
	ArbiterCut float64            `json:"arbiter_cut,omitempty"`
	SellerCuts map[string]float64 `json:"seller_cuts,omitempty"`
}

// ReplayReport re-applies one report settlement from the durable event log:
// the escrow release and revenue fan-out repeat with the logged amounts
// (micro-unit identical to the original run — the audit is never re-run),
// the pending entry clears, and the audit RNG steps exactly once so live
// reports after the replayed prefix see the same audit schedule the
// uninterrupted run would have.
func (a *Arbiter) ReplayReport(rr ReplayedReport) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.pendingExPost[rr.TxID]
	if !ok {
		return fmt.Errorf("arbiter: no pending ex-post transaction %q", rr.TxID)
	}
	a.stepRNG()
	pay := ledger.FromFloat(rr.Paid)
	if err := a.paySplit(rr.TxID, pay, rr.SellerCuts); err != nil {
		return err
	}
	st.tx.Price = rr.Paid
	st.tx.ArbiterCut = rr.ArbiterCut
	cuts := make(map[string]float64, len(rr.SellerCuts))
	for s, c := range rr.SellerCuts {
		cuts[s] = c
	}
	st.tx.SellerCuts = cuts
	delete(a.pendingExPost, rr.TxID)
	return nil
}
