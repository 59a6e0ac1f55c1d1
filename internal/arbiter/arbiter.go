// Package arbiter implements the Arbiter Management Platform (paper §4.1,
// Fig. 2), "the most complex of all DMMS's components: it builds mashups to
// match supply and demand, and it implements the five market design
// components". The pipeline per matching round:
//
//	Mashup Builder -> WTP-Evaluator -> Pricing Engine -> Transaction
//	Support -> Revenue Allocation Engine
//
// plus the arbiter services around it: demand signals for opportunistic
// sellers, dataset recommendations, and negotiation rounds that ask sellers
// for the information automatic integration lacks (§4.1, §5.4).
package arbiter

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/dod"
	"repro/internal/index"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

// ArbiterAccount is the ledger account collecting the arbiter's fees.
const ArbiterAccount = "arbiter"

// Request is one buyer's open data need: a target schema plus the
// WTP-function that prices satisfaction.
type Request struct {
	ID    string
	Want  dod.Want
	WTP   *wtp.Function
	Open  bool
	Round int
}

// Transaction records one completed sale — the transparency artifact buyers
// and sellers audit (paper §4.4).
type Transaction struct {
	ID           string
	RequestID    string
	Buyer        string
	Mashup       *relation.Relation
	Datasets     []string
	Plan         []string
	Satisfaction float64
	Price        float64
	ArbiterCut   float64
	SellerCuts   map[string]float64
	ExPost       bool
	// ExPostShares are the per-owner revenue fractions fixed at delivery
	// time over the mashup's datasets (ex-post sales only). The buyer's
	// later report settles by these, live and on WAL replay alike, so the
	// split never depends on an in-memory mashup that a restart loses.
	ExPostShares map[string]float64
}

// Arbiter wires the catalog, metadata engine, index builder, DoD engine,
// market design, ledger and license manager into one platform.
type Arbiter struct {
	mu sync.Mutex

	Design   *market.Design
	Catalog  *catalog.Catalog
	Ledger   *ledger.Ledger
	Licenses *license.Manager
	// Policy, when set, gates every dataset→buyer flow through a
	// contextual-integrity check (internal/policy, paper §4.4). A nil
	// engine allows everything.
	Policy *policy.Engine

	ix   *index.Index
	disc *discovery.Engine
	dod  *dod.Engine

	metas map[string]wtp.DatasetMeta
	// shareOrder records dataset IDs in ingestion order; snapshot/restore
	// replays shares in this order so profile indexing is deterministic.
	shareOrder []string
	// reqByID indexes the open requests by ID; a request leaves it the
	// moment it settles (nothing looks a closed one up; the ID counter rules
	// out filing it twice). openList holds them in filing order, compacted
	// lazily, so rounds and memory track the open set, not the history.
	reqByID  map[string]*Request
	openList []*Request
	// history is the newest retain.Windows.History completed transactions,
	// oldest first, and settled the count of all of them. The record of who
	// sold what is the engine's event log and settlement book.
	history []*Transaction
	settled int
	// unmet tracks wanted columns no mashup could supply — the demand
	// signal opportunistic sellers mine (paper §7.1).
	unmet map[string]int
	// purchases feeds the recommendation service: buyer -> dataset -> count.
	purchases map[string]map[string]int
	// pendingExPost holds delivered-but-unpaid ex-post transactions.
	pendingExPost map[string]*exPostState

	nextID int
	rng    uint64
}

// exPostState tracks one delivered-but-unreported ex-post sale. fracs are
// the owner revenue fractions fixed at delivery (see Transaction.
// ExPostShares); they are durable (tx-settled events and snapshots carry
// them), so report settlement is identical before and after a restart.
type exPostState struct {
	tx      *Transaction
	deposit ledger.Currency
	buyer   string
	fracs   map[string]float64
}

// New creates an arbiter running the given market design.
func New(design *market.Design) (*Arbiter, error) {
	if err := design.Validate(); err != nil {
		return nil, err
	}
	a := &Arbiter{
		Design:        design,
		Catalog:       catalog.New(),
		Ledger:        ledger.New(),
		Licenses:      license.NewManager(),
		ix:            index.Build(index.DefaultConfig(), nil),
		metas:         map[string]wtp.DatasetMeta{},
		reqByID:       map[string]*Request{},
		unmet:         map[string]int{},
		purchases:     map[string]map[string]int{},
		pendingExPost: map[string]*exPostState{},
		rng:           0x9e3779b97f4a7c15,
	}
	a.disc = discovery.New(a.ix)
	a.dod = dod.New(a.Catalog, a.disc)
	if err := a.Ledger.Open(ArbiterAccount, 0); err != nil {
		return nil, err
	}
	return a, nil
}

// DoD exposes the dataset-on-demand engine (negotiation registers
// transforms through it).
func (a *Arbiter) DoD() *dod.Engine { return a.dod }

// Discovery exposes the discovery engine.
func (a *Arbiter) Discovery() *discovery.Engine { return a.disc }

// RegisterParticipant opens a ledger account with initial funds.
func (a *Arbiter) RegisterParticipant(name string, funds float64) error {
	return a.Ledger.Open(name, ledger.FromFloat(funds))
}

// ShareDataset ingests a seller's dataset: catalog registration, profiling,
// incremental indexing, metadata capture and license terms. Supply arriving
// costs only the buyers it could serve a rebuild: the catalog version bump
// stales the cached candidate sets whose want the new dataset can provide
// for (directly, by alias, fuzzy name or transform) and carries the rest
// forward — see the footprint rule in internal/dod/cache.go.
func (a *Arbiter) ShareDataset(seller string, id catalog.DatasetID, rel *relation.Relation,
	meta wtp.DatasetMeta, terms license.Terms) error {
	if err := a.Catalog.Register(id, seller, rel); err != nil {
		return err
	}
	if err := a.Licenses.SetTerms(string(id), terms); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	meta.Dataset = string(id)
	a.metas[string(id)] = meta
	a.shareOrder = append(a.shareOrder, string(id))
	// Index through the DoD engine's mutation seam: concurrent builds never
	// see a half-indexed dataset.
	a.dod.MutateCatalog(id, func() bool {
		a.ix.Add(profile.Profile(string(id), rel))
		return true
	})
	a.Ledger.Note(fmt.Sprintf("dataset %s shared by %s (%d rows, license %s)", id, seller, rel.NumRows(), terms.Kind))
	return nil
}

// UpdateDataset records a new version and re-indexes.
func (a *Arbiter) UpdateDataset(id catalog.DatasetID, rel *relation.Relation, comment string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Both the catalog content swap and the re-index happen inside the
	// build/mutate seam: an in-flight build can never read the new rows
	// through the old index (or under the old version stamp), and the
	// version bump inside MutateCatalog is what keeps a prebuilt mashup of
	// the old version from ever settling — every set the dataset provided
	// for keeps its old stamp, so price-time validity checks compare it
	// against the bumped version and rebuild.
	var uerr error
	a.dod.MutateCatalog(id, func() bool {
		if _, uerr = a.Catalog.Update(id, rel, comment); uerr != nil {
			return false // nothing applied; keep the cache warm
		}
		a.ix.Add(profile.Profile(string(id), rel))
		return true
	})
	if uerr != nil {
		return uerr
	}
	if m, ok := a.metas[string(id)]; ok {
		m.UpdatedAt = time.Now()
		a.metas[string(id)] = m
	}
	return nil
}

// SubmitRequest files a buyer's data need. The returned ID tracks it through
// matching rounds.
func (a *Arbiter) SubmitRequest(want dod.Want, f *wtp.Function) (string, error) {
	if err := f.Validate(); err != nil {
		return "", err
	}
	if len(want.Columns) == 0 {
		return "", fmt.Errorf("arbiter: request has no wanted columns")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	id := fmt.Sprintf("req-%04d", a.nextID)
	a.fileRequestLocked(&Request{ID: id, Want: want, WTP: f, Open: true})
	return id, nil
}

// fileRequestLocked indexes a newly filed request. Caller holds a.mu.
func (a *Arbiter) fileRequestLocked(r *Request) {
	a.reqByID[r.ID] = r
	a.openList = append(a.openList, r)
}

// closeRequest marks a request settled and forgets it: openList drops it at
// its next compaction. Caller holds a.mu.
func (a *Arbiter) closeRequest(r *Request) {
	r.Open = false
	delete(a.reqByID, r.ID)
}

// recordTx appends a completed transaction to the history window, dropping
// the oldest one beyond it. Caller holds a.mu.
func (a *Arbiter) recordTx(tx *Transaction) {
	a.history = append(a.history, tx)
	a.settled++
	if len(a.history) > retain.Sizes().History {
		a.history[0] = nil
		a.history = a.history[1:]
	}
}

// openLocked compacts settled requests out of openList and returns the open
// requests in filing order. Caller holds a.mu. Compaction keeps the slice
// proportional to the open set, so every matching round — MatchRound and
// PriceRound alike — costs O(open), not O(lifetime requests).
func (a *Arbiter) openLocked() []*Request {
	kept := a.openList[:0]
	for _, r := range a.openList {
		if r.Open {
			kept = append(kept, r)
		}
	}
	// Release the dropped tail so settled requests do not pin memory.
	for i := len(kept); i < len(a.openList); i++ {
		a.openList[i] = nil
	}
	a.openList = kept
	return kept
}

// wantKey normalizes a Want so buyers with the same need share an auction.
// The same key addresses the DoD engine's candidate cache, so a prebuilt
// CandidateSet maps straight onto the group that will price it.
func wantKey(w dod.Want) string { return w.Key() }

// MatchResult summarizes one matching round.
type MatchResult struct {
	Transactions []*Transaction
	Unsatisfied  []string // request IDs with no acceptable mashup
	// UnmetCols are this round's demand-signal increments: wanted columns no
	// mashup could supply, counted once per request group. MatchRound folds
	// them into the arbiter's demand signals itself; PriceRound leaves
	// that to the caller (see AddUnmet).
	UnmetCols map[string]int
}

// MatchRound runs the full Fig. 2 pipeline over all open requests, building
// mashups inline (through the candidate cache).
func (a *Arbiter) MatchRound() (*MatchResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res := a.matchRoundLocked(context.Background(), nil, nil)
	for c, n := range res.UnmetCols {
		a.unmet[c] += n
	}
	return res, nil
}

// PriceRound is the price stage of the split Fig. 2 pipeline: it runs the
// matching round over the given open requests (nil = all, in arrival order)
// but lets each want group consume a pre-built CandidateSet from the map
// (keyed by Want.Key()) instead of building inline. A handed set is used
// only while it is still valid — built from the identical want at the
// current catalog version; anything stale, foreign or absent falls back to a
// (cache-aware) inline build, so a dataset updated between build and price
// can never settle against its pre-update mashup. ctx bounds any inline
// rebuild a stale or missing prebuilt set forces (the DoD build deadline
// applies on top), so one wedged group cannot stall the whole round. Unknown
// or closed IDs are skipped. Unlike MatchRound it does not fold
// res.UnmetCols into the demand signals: the engine commits them (AddUnmet)
// only when the round is actually counted, so an aborted round leaves no
// trace and WAL replay stays deterministic.
func (a *Arbiter) PriceRound(ctx context.Context, ids []string, prebuilt map[string]*dod.CandidateSet) (*MatchResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ids == nil {
		return a.matchRoundLocked(ctx, nil, prebuilt), nil
	}
	pool := make([]*Request, 0, len(ids))
	for _, id := range ids {
		if r := a.reqByID[id]; r != nil && r.Open {
			pool = append(pool, r)
		}
	}
	return a.matchRoundLocked(ctx, pool, prebuilt), nil
}

// BuildFor builds (through the versioned candidate cache) the mashup
// candidates for one want. It deliberately does not take the arbiter lock:
// builds from several goroutines run concurrently with each other and with
// intake, serialized only against catalog mutations inside the DoD engine.
// ctx cancels or bounds the build (the configured build deadline applies on
// top); an abandoned build resolves to a failed CandidateSet.
func (a *Arbiter) BuildFor(ctx context.Context, want dod.Want) *dod.CandidateSet {
	return a.dod.BuildCached(ctx, want)
}

// AddUnmet folds a round's unmet-demand increments into the demand signals
// opportunistic sellers mine. The engine calls it when committing a counted
// epoch (live and on WAL replay, from the epoch-end record), so restored
// demand signals match the original run exactly.
func (a *Arbiter) AddUnmet(cols map[string]int) {
	if len(cols) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for c, n := range cols {
		a.unmet[c] += n
	}
}

// UnmetCounts returns a copy of the raw unmet-demand counters (the data
// behind DemandSignals) for snapshots.
func (a *Arbiter) UnmetCounts() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.unmet) == 0 {
		return nil
	}
	out := make(map[string]int, len(a.unmet))
	for c, n := range a.unmet {
		out[c] = n
	}
	return out
}

// matchRoundLocked runs one round over the given request pool (nil = every
// open request in arrival order), pricing prebuilt candidate sets where a
// valid one is supplied. Unmet demand is accumulated into the result, not
// the arbiter. Caller holds a.mu.
func (a *Arbiter) matchRoundLocked(ctx context.Context, pool []*Request, prebuilt map[string]*dod.CandidateSet) *MatchResult {
	res := &MatchResult{UnmetCols: map[string]int{}}
	if pool == nil {
		pool = a.openLocked()
	}

	groups := map[string][]*Request{}
	var order []string
	for _, r := range pool {
		if !r.Open {
			continue
		}
		k := wantKey(r.Want)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}

	for _, k := range order {
		reqs := groups[k]
		txs, unsat := a.matchGroup(ctx, reqs, res.UnmetCols, prebuilt[k])
		res.Transactions = append(res.Transactions, txs...)
		res.Unsatisfied = append(res.Unsatisfied, unsat...)
	}
	return res
}

// matchGroup auctions the best mashup for one group of identical wants. A
// handed pre-built CandidateSet is priced only after the version check
// re-validates it against the live catalog; otherwise the group builds
// inline through the cache. A deadline-failed prebuilt set passes the check
// (it is stamped with the current version) and prices as a failed build —
// the group goes unsatisfied this round and retries the next, instead of
// re-running the wedged search inline. Unmet demand is accumulated into the
// caller's map.
func (a *Arbiter) matchGroup(ctx context.Context, reqs []*Request, unmet map[string]int, cs *dod.CandidateSet) ([]*Transaction, []string) {
	want := reqs[0].Want
	if !a.dod.Valid(cs, want) {
		// Stale (a ShareDataset/UpdateDataset/RegisterTransform touched the
		// want's footprint since the build), foreign or missing: rebuild at
		// the current version. BuildCached counts the stale/miss.
		cs = a.dod.BuildCached(ctx, want)
	}
	cands := cs.Candidates
	if len(cands) == 0 {
		recordUnmet(unmet, want.Columns)
		return nil, requestIDs(reqs)
	}
	best := a.pickCandidate(cands, reqs)
	if best == nil {
		recordUnmet(unmet, want.Columns)
		return nil, requestIDs(reqs)
	}
	if best.Coverage < 1 {
		recordUnmetMissing(unmet, want.Columns, best.Rel().Schema)
	}

	// WTP-Evaluator: each buyer's offer for the chosen mashup. Bids are
	// keyed by request ID, not buyer name: a buyer may hold several open
	// requests for the same columns with different curves, and mechanisms
	// reorder sales, so only the request ID can map a sale back to the bid
	// that won it. Each request is one unit of demand in the auction.
	type offer struct {
		req *Request
		ev  wtp.Evaluation
	}
	offerByReq := map[string]*offer{}
	var bids []market.Bid
	sources := a.sourceMetas(best.Datasets)
	for _, r := range reqs {
		if !a.flowsAllowed(best.Datasets, r.WTP.Buyer, r.WTP.Purpose) {
			continue
		}
		ev := r.WTP.Evaluate(best.Rel(), sources)
		if ev.Rejected || ev.Offer <= 0 {
			continue
		}
		trueVal := ev.Offer
		if len(r.WTP.TrueValue) > 0 {
			trueVal = r.WTP.TrueValue.Price(ev.Satisfaction)
		}
		offerByReq[r.ID] = &offer{req: r, ev: ev}
		bids = append(bids, market.Bid{Buyer: r.ID, Offer: ev.Offer, True: trueVal})
	}
	if len(bids) == 0 {
		return nil, requestIDs(reqs)
	}

	// Pricing Engine: supply from licenses; mechanism from the design.
	supply := market.SupplyUnlimited
	for _, ds := range best.Datasets {
		if s := a.Licenses.TermsFor(ds).Supply(); s == 1 {
			supply = 1
		}
	}
	out := a.Design.Mechanism.Run(bids, supply)

	// Transaction Support + Revenue Allocation Engine.
	var txs []*Transaction
	satisfied := map[string]bool{}
	for _, sale := range out.Sales {
		o := offerByReq[sale.Buyer] // sale.Buyer carries the request ID
		if o == nil || !o.req.Open {
			continue
		}
		tx, err := a.settle(o.req, best, sale, o.ev)
		if err != nil {
			continue // e.g. insufficient funds; buyer drops out
		}
		txs = append(txs, tx)
		satisfied[o.req.ID] = true
		a.closeRequest(o.req)
	}
	var unsat []string
	for _, r := range reqs {
		if !satisfied[r.ID] && r.Open {
			unsat = append(unsat, r.ID)
		}
	}
	return txs, unsat
}

// pickCandidate chooses the mashup maximizing total offered value across the
// group (falls back to the DoD ranking when no offers arrive).
func (a *Arbiter) pickCandidate(cands []dod.Candidate, reqs []*Request) *dod.Candidate {
	bestIdx, bestVal := -1, -1.0
	for i := range cands {
		sources := a.sourceMetas(cands[i].Datasets)
		var total float64
		for _, r := range reqs {
			ev := r.WTP.Evaluate(cands[i].Rel(), sources)
			if !ev.Rejected {
				total += ev.Offer
			}
		}
		if total > bestVal {
			bestVal, bestIdx = total, i
		}
	}
	if bestIdx < 0 {
		return &cands[0]
	}
	return &cands[bestIdx]
}

// flowsAllowed runs the contextual-integrity check for every dataset flowing
// to the buyer; with no policy engine all flows pass.
func (a *Arbiter) flowsAllowed(datasets []string, buyerName, purpose string) bool {
	if a.Policy == nil {
		return true
	}
	for _, ds := range datasets {
		d := a.Policy.Check(policy.Flow{
			Dataset:  ds,
			Sender:   a.Catalog.Owner(catalog.DatasetID(ds)),
			Receiver: buyerName,
			Purpose:  policy.Purpose(purpose),
		})
		if !d.Allowed {
			return false
		}
	}
	return true
}

func (a *Arbiter) sourceMetas(datasets []string) []wtp.DatasetMeta {
	out := make([]wtp.DatasetMeta, 0, len(datasets))
	for _, ds := range datasets {
		if m, ok := a.metas[ds]; ok {
			out = append(out, m)
		} else {
			out = append(out, wtp.DatasetMeta{Dataset: ds})
		}
	}
	return out
}

// settle executes payment, licensing and revenue sharing for one sale. The
// sale's Buyer field carries the request ID (the auction's bid key); the
// paying account is the request's buyer.
func (a *Arbiter) settle(req *Request, cand *dod.Candidate, sale market.Sale, ev wtp.Evaluation) (*Transaction, error) {
	buyer := req.WTP.Buyer
	a.nextID++
	txID := fmt.Sprintf("tx-%04d", a.nextID)
	price := ledger.FromFloat(sale.Price)

	// The allocation context: a sampler seed derived from the settlement
	// identity. txIDs are assigned deterministically, so crash/replay and
	// redrive re-derive the same seed and the same sampled split.
	actx := market.AllocContext{Seed: market.SeedFromID(txID)}
	// The sellers are the mashup's datasets. A mashup with no rows holds no
	// seller's data, so no seller is paid and the arbiter keeps the price.
	sellers := cand.Datasets
	if cand.Rel().NumRows() == 0 {
		sellers = nil
	}

	tx := &Transaction{
		ID:           txID,
		RequestID:    req.ID,
		Buyer:        buyer,
		Mashup:       cand.Rel(),
		Datasets:     cand.Datasets,
		Plan:         cand.Plan,
		Satisfaction: ev.Satisfaction,
		Price:        sale.Price,
		SellerCuts:   map[string]float64{},
	}

	if a.Design.Elicitation == market.ElicitExPost {
		// Deliver now against an escrowed deposit; settle on report. The
		// revenue fractions are fixed here, at delivery, and travel on the
		// tx-settled event and in snapshots.
		mech, _ := a.Design.Mechanism.(market.ExPost)
		dep := ledger.FromFloat(mech.Deposit)
		if dep == 0 {
			dep = price
		}
		if err := a.Ledger.Hold(txID, buyer, dep, "ex-post deposit"); err != nil {
			return nil, err
		}
		tx.ExPost = true
		tx.ExPostShares = a.Design.RevenueFractions(sellers, a.ownersOf(sellers), nil, actx)
		a.pendingExPost[txID] = &exPostState{tx: tx, deposit: dep, buyer: buyer, fracs: tx.ExPostShares}
		a.recordPurchase(buyer, cand.Datasets)
		a.recordTx(tx)
		a.issueLicenses(cand.Datasets, buyer, sale.Price)
		return tx, nil
	}

	if err := a.Ledger.Hold(txID, buyer, price, "purchase "+cand.Rel().Name); err != nil {
		return nil, err
	}
	split := a.Design.ShareRevenue(sale.Price, sellers, a.ownersOf(sellers), nil, actx)
	if err := a.paySplit(txID, a.Ledger.Escrowed(txID), split.SellerCut); err != nil {
		return nil, err
	}
	tx.ArbiterCut = split.ArbiterCut
	tx.SellerCuts = split.SellerCut
	a.issueLicenses(cand.Datasets, buyer, sale.Price)
	a.recordPurchase(buyer, cand.Datasets)
	a.recordTx(tx)
	a.Ledger.Note(fmt.Sprintf("%s: %s bought %s for %.2f (satisfaction %.2f)",
		txID, buyer, cand.Rel().Name, sale.Price, ev.Satisfaction))
	return tx, nil
}

// paySplit settles an escrow: `pay` of the held amount is released to the
// arbiter account (the ledger refunds the remainder to the funder), which
// then fans the seller cuts out. The arbiter's fee is what remains after
// the fan-out. Up-front settlements pass the full escrow; ex-post report
// settlement — live and on WAL replay — passes the reported amount capped
// by the deposit. Conservation is asserted up front: the seller cuts must
// never exceed the released amount, or the fan-out would silently drain the
// arbiter's own fee account — a broken split fails the settlement before any
// money moves.
func (a *Arbiter) paySplit(escrowID string, pay ledger.Currency, sellerCuts map[string]float64) error {
	var cutSum ledger.Currency
	for _, s := range market.SortedPlayers(sellerCuts) {
		if amt := ledger.FromFloat(sellerCuts[s]); amt > 0 {
			cutSum += amt
		}
	}
	if cutSum > pay {
		return fmt.Errorf("arbiter: revenue split over-allocates escrow %s: seller cuts %v exceed released %v",
			escrowID, cutSum, pay)
	}
	if err := a.Ledger.Release(escrowID, ArbiterAccount, pay, "settlement"); err != nil {
		return err
	}
	for _, s := range market.SortedPlayers(sellerCuts) {
		amt := ledger.FromFloat(sellerCuts[s])
		if amt <= 0 {
			continue
		}
		if err := a.Ledger.Transfer(ArbiterAccount, s, amt, "revenue share "+escrowID); err != nil {
			return err
		}
	}
	return nil
}

func (a *Arbiter) ownersOf(datasets []string) map[string]string {
	out := map[string]string{}
	for _, ds := range datasets {
		out[ds] = a.Catalog.Owner(catalog.DatasetID(ds))
	}
	return out
}

func (a *Arbiter) issueLicenses(datasets []string, buyer string, price float64) {
	for _, ds := range datasets {
		a.Licenses.Issue(ds, buyer, price)
	}
}

// MayResell reports whether a participant may resell derivatives of a
// dataset. The holder of an exclusive or transfer dataset may when its terms
// at sale allowed it; any other participant may only after buying an open
// dataset. Owning a dataset confers no resale license.
func (a *Arbiter) MayResell(dataset, participant string) bool {
	if h, ok := a.Licenses.HolderOf(dataset); ok {
		return h.Beneficiary == participant && h.Terms.CanResell()
	}
	a.mu.Lock()
	bought := a.purchases[participant][dataset] > 0
	a.mu.Unlock()
	return bought && a.Licenses.TermsFor(dataset).Kind == license.Open
}

func (a *Arbiter) recordPurchase(buyer string, datasets []string) {
	if a.purchases[buyer] == nil {
		a.purchases[buyer] = map[string]int{}
	}
	for _, ds := range datasets {
		a.purchases[buyer][ds]++
	}
}

func recordUnmet(unmet map[string]int, cols []string) {
	for _, c := range cols {
		unmet[c]++
	}
}

func recordUnmetMissing(unmet map[string]int, wanted []string, got relation.Schema) {
	for _, c := range wanted {
		if !got.Has(c) {
			unmet[c]++
		}
	}
}

// stepRNG advances the arbiter's deterministic audit RNG (xorshift64) one
// step and returns the new state. Only report settlement consumes it, live
// and on replay alike, so the state is a pure function of how many reports
// have settled — snapshots carry it (core.PlatformSnapshot.Rng) and replay
// re-steps it, keeping post-restore audit decisions identical to an
// uninterrupted run. Caller holds a.mu.
func (a *Arbiter) stepRNG() uint64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return a.rng
}

// ReportOutcome is the durable outcome of one ex-post report settlement —
// everything the engine logs on a value-reported event so WAL replay can
// reproduce the transfers micro-unit exactly without re-running the audit.
type ReportOutcome struct {
	TxID       string
	RequestID  string
	Buyer      string
	Paid       float64
	Audited    bool
	ArbiterCut float64
	SellerCuts map[string]float64
}

// ReportValue settles a pending ex-post transaction with the buyer's
// reported value (paper §3.2.2.2), returning the amount paid. See
// SettleReport for the full outcome.
func (a *Arbiter) ReportValue(txID string, reported, trueValue float64) (float64, error) {
	out, err := a.SettleReport(txID, reported, trueValue)
	return out.Paid, err
}

// SettleReport settles a pending ex-post transaction with the buyer's
// reported value. The arbiter audits with the mechanism's probability
// (deterministic pseudo-randomness keyed by report order); audited
// under-reports pay the shortfall plus penalty, capped by the escrowed
// deposit. The returned outcome carries the realized transfers for the
// engine's value-reported event-log record.
func (a *Arbiter) SettleReport(txID string, reported, trueValue float64) (ReportOutcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.pendingExPost[txID]
	if !ok {
		return ReportOutcome{}, fmt.Errorf("arbiter: no pending ex-post transaction %q", txID)
	}
	mech, _ := a.Design.Mechanism.(market.ExPost)
	audited := float64(a.stepRNG()%10000)/10000 < mech.AuditProb
	outs, _ := mech.RunAudited(
		[]market.Bid{{Buyer: st.buyer, Offer: reported, True: trueValue}},
		func(int) bool { return audited })
	pay := ledger.FromFloat(outs[0].Sale.Price)
	if pay < 0 {
		// A report of negative realized value pays nothing (ExPost.Run
		// clamps identically); the whole deposit is refunded. Settling —
		// rather than erroring out after the RNG step — keeps every audit
		// RNG step paired with a logged value-reported record, which WAL
		// replay depends on.
		pay = 0
	}
	if pay > st.deposit {
		pay = st.deposit
	}
	split := a.Design.ShareFractions(pay.Float(), st.fracs)
	if err := a.paySplit(txID, pay, split.SellerCut); err != nil {
		return ReportOutcome{}, err
	}
	st.tx.Price = pay.Float()
	st.tx.ArbiterCut = split.ArbiterCut
	st.tx.SellerCuts = split.SellerCut
	delete(a.pendingExPost, txID)
	return ReportOutcome{
		TxID:       txID,
		RequestID:  st.tx.RequestID,
		Buyer:      st.buyer,
		Paid:       pay.Float(),
		Audited:    audited,
		ArbiterCut: split.ArbiterCut,
		SellerCuts: split.SellerCut,
	}, nil
}

// History returns the newest completed transactions (at most
// retain.Windows.History), oldest first; see Settled for the total.
func (a *Arbiter) History() []*Transaction {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Transaction, len(a.history))
	copy(out, a.history)
	return out
}

// Settled returns how many transactions were ever completed, including those
// History no longer holds.
func (a *Arbiter) Settled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.settled
}

// HistoryHeld returns how many transactions History holds.
func (a *Arbiter) HistoryHeld() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.history)
}

// OpenCount returns the number of unmatched requests. Cheap enough to call
// from a metrics scrape: one lock plus an O(open) compaction.
func (a *Arbiter) OpenCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.openLocked())
}

// UnmetWantCount returns how many distinct wanted columns currently carry
// unmet-demand signals.
func (a *Arbiter) UnmetWantCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.unmet)
}

// OpenRequests returns the IDs of unmatched requests.
func (a *Arbiter) OpenRequests() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	open := a.openLocked()
	out := make([]string, len(open))
	for i, r := range open {
		out[i] = r.ID
	}
	return out
}

func requestIDs(reqs []*Request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	return out
}
