package core

import (
	"fmt"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/mltask"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// This file implements snapshot/restore for the platform: the checkpoint
// half of the durability story (internal/wal holds the log half). A
// PlatformSnapshot captures everything the engine's replay path would
// otherwise rebuild from the event log — accounts, catalog contents, open
// requests, the ID counter — so a restart can boot from the checkpoint and
// replay only the WAL tail.
//
// Serializable request specs live here too: the event log and snapshots
// both need a wire form for dod.Want + wtp.Function, and only the coverage
// and classifier task kinds can travel (arbitrary code tasks — wtp.FuncTask —
// are in-process only and therefore not durable).

// TaskSpec is the serializable form of a wtp.Task.
type TaskSpec struct {
	Kind string `json:"kind"` // "coverage" | "classifier"
	// Coverage.
	Columns  []string `json:"columns,omitempty"`
	WantRows int      `json:"want_rows,omitempty"`
	// Classifier.
	Features []string `json:"features,omitempty"`
	Label    string   `json:"label,omitempty"`
	Model    string   `json:"model,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

// EncodeTask converts a task to its spec. The second return is false for
// task kinds that cannot be serialized (code packages).
func EncodeTask(t wtp.Task) (TaskSpec, bool) {
	switch task := t.(type) {
	case wtp.CoverageTask:
		return TaskSpec{Kind: "coverage", Columns: task.Columns, WantRows: task.WantRows}, true
	case wtp.ClassifierTask:
		return TaskSpec{Kind: "classifier", Features: task.Spec.Features, Label: task.Spec.Label,
			Model: string(task.Spec.Model), Seed: task.Spec.Seed}, true
	default:
		return TaskSpec{}, false
	}
}

// Task rebuilds the wtp.Task the spec encodes.
func (s TaskSpec) Task() (wtp.Task, error) {
	switch s.Kind {
	case "coverage":
		return wtp.CoverageTask{Columns: s.Columns, WantRows: s.WantRows}, nil
	case "classifier":
		return wtp.ClassifierTask{Spec: mltask.ClassifierTask{
			Features: s.Features, Label: s.Label, Model: mltask.ModelKind(s.Model), Seed: s.Seed}}, nil
	default:
		return nil, fmt.Errorf("core: unknown task kind %q", s.Kind)
	}
}

// CurvePointSpec is one WTP price point on the wire.
type CurvePointSpec struct {
	MinSatisfaction float64 `json:"min_satisfaction"`
	Price           float64 `json:"price"`
}

// ConstraintsSpec is the serializable form of wtp.Constraints (the Now
// anchor is deliberately dropped; restored constraints re-anchor on
// time.Now, like freshly submitted ones).
type ConstraintsSpec struct {
	MaxAge            time.Duration `json:"max_age,omitempty"`
	RequireProvenance bool          `json:"require_provenance,omitempty"`
	AllowedAuthors    []string      `json:"allowed_authors,omitempty"`
	MaxMissingRatio   float64       `json:"max_missing_ratio,omitempty"`
	MinRows           int           `json:"min_rows,omitempty"`
}

// RequestSpec is the full serializable form of one buyer request: the
// dod.Want plus the WTP-function. It is what tx logs and snapshots persist
// so an open request survives a restart.
type RequestSpec struct {
	Buyer   string              `json:"buyer"`
	Purpose string              `json:"purpose,omitempty"`
	Columns []string            `json:"columns"`
	Aliases map[string][]string `json:"aliases,omitempty"`
	// Want knobs.
	MaxDatasets   int     `json:"max_datasets,omitempty"`
	MaxCandidates int     `json:"max_candidates,omitempty"`
	MinJoinScore  float64 `json:"min_join_score,omitempty"`
	MinRows       int     `json:"min_rows,omitempty"`
	// WTP-function.
	Task        TaskSpec           `json:"task"`
	Curve       []CurvePointSpec   `json:"curve"`
	TrueValue   []CurvePointSpec   `json:"true_value,omitempty"`
	Constraints ConstraintsSpec    `json:"constraints,omitempty"`
	Owned       *relation.Relation `json:"owned,omitempty"`
}

func encodeCurve(c wtp.PriceCurve) []CurvePointSpec {
	if len(c) == 0 {
		return nil
	}
	out := make([]CurvePointSpec, len(c))
	for i, p := range c {
		out[i] = CurvePointSpec{MinSatisfaction: p.MinSatisfaction, Price: p.Price}
	}
	return out
}

func decodeCurve(specs []CurvePointSpec) wtp.PriceCurve {
	if len(specs) == 0 {
		return nil
	}
	out := make(wtp.PriceCurve, len(specs))
	for i, p := range specs {
		out[i] = wtp.CurvePoint{MinSatisfaction: p.MinSatisfaction, Price: p.Price}
	}
	return out
}

// EncodeRequest converts a want + WTP-function into its durable spec. The
// second return is false when the function's task is not serializable.
func EncodeRequest(want dod.Want, f *wtp.Function) (*RequestSpec, bool) {
	task, ok := EncodeTask(f.Task)
	if !ok {
		return nil, false
	}
	return &RequestSpec{
		Buyer:         f.Buyer,
		Purpose:       f.Purpose,
		Columns:       want.Columns,
		Aliases:       want.Aliases,
		MaxDatasets:   want.MaxDatasets,
		MaxCandidates: want.MaxCandidates,
		MinJoinScore:  want.MinJoinScore,
		MinRows:       want.MinRows,
		Task:          task,
		Curve:         encodeCurve(f.Curve),
		TrueValue:     encodeCurve(f.TrueValue),
		Constraints: ConstraintsSpec{
			MaxAge:            f.Constraints.MaxAge,
			RequireProvenance: f.Constraints.RequireProvenance,
			AllowedAuthors:    f.Constraints.AllowedAuthors,
			MaxMissingRatio:   f.Constraints.MaxMissingRatio,
			MinRows:           f.Constraints.MinRows,
		},
		Owned: f.Owned,
	}, true
}

// Decode rebuilds the dod.Want and wtp.Function the spec encodes.
func (s *RequestSpec) Decode() (dod.Want, *wtp.Function, error) {
	task, err := s.Task.Task()
	if err != nil {
		return dod.Want{}, nil, err
	}
	f := &wtp.Function{
		Buyer:     s.Buyer,
		Purpose:   s.Purpose,
		Task:      task,
		Curve:     decodeCurve(s.Curve),
		TrueValue: decodeCurve(s.TrueValue),
		Constraints: wtp.Constraints{
			MaxAge:            s.Constraints.MaxAge,
			RequireProvenance: s.Constraints.RequireProvenance,
			AllowedAuthors:    s.Constraints.AllowedAuthors,
			MaxMissingRatio:   s.Constraints.MaxMissingRatio,
			MinRows:           s.Constraints.MinRows,
		},
		Owned: s.Owned,
	}
	want := dod.Want{
		Columns:       s.Columns,
		Aliases:       s.Aliases,
		MaxDatasets:   s.MaxDatasets,
		MaxCandidates: s.MaxCandidates,
		MinJoinScore:  s.MinJoinScore,
		MinRows:       s.MinRows,
	}
	return want, f, nil
}

// AccountState is one ledger account in a snapshot. Balance is in
// micro-units (ledger.Currency), exact by construction.
type AccountState struct {
	Name    string          `json:"name"`
	Balance ledger.Currency `json:"balance"`
}

// DatasetState is one shared dataset in a snapshot: the current catalog
// version plus the metadata and license terms matching rounds consult.
type DatasetState struct {
	ID       string             `json:"id"`
	Owner    string             `json:"owner"`
	Relation *relation.Relation `json:"relation"`
	Meta     wtp.DatasetMeta    `json:"meta"`
	License  string             `json:"license"`
	TaxRate  float64            `json:"tax_rate,omitempty"`
}

// RequestState is one open request in a snapshot.
type RequestState struct {
	ID   string       `json:"id"`
	Spec *RequestSpec `json:"spec"`
}

// PlatformSnapshot is a point-in-time checkpoint of the platform state the
// engine's event-log replay rebuilds: participants and balances, shared
// datasets (current version), open requests, the purchase history license
// resale checks read, the holders of exclusive and transfer licenses, and the
// arbiter's ID counter. Derived state — profiles, the discovery index, seller
// platforms — is recomputed on restore by re-ingesting datasets in share
// order, so a restored platform matches a replayed one exactly. Not captured:
// catalog version history, the audit chain (a verification window over recent
// activity, restarted with the process), closed requests, completed
// transactions older than the arbiter's history window (HistoryDropped counts
// them; the event log and the engine's settlement book — archived beside the
// snapshot by the checkpointer, never inside it — are the record), and open
// requests carrying non-serializable code tasks.
type PlatformSnapshot struct {
	Design   string         `json:"design"`
	Sellers  []string       `json:"sellers,omitempty"` // creation order
	Buyers   []string       `json:"buyers,omitempty"`  // creation order
	Accounts []AccountState `json:"accounts,omitempty"`
	Datasets []DatasetState `json:"datasets,omitempty"` // share order
	Requests []RequestState `json:"requests,omitempty"` // filing order
	// History is the arbiter's window of recent completed transactions
	// (sans mashups), HistoryDropped how many older ones it had let go; the
	// ledger effects of all of them are already inside Accounts. Snapshots
	// from before the window existed list every transaction and are trimmed
	// on load.
	History        []arbiter.ReplayedSettlement `json:"history,omitempty"`
	HistoryDropped int                          `json:"history_dropped,omitempty"`
	// PendingExPost carries delivered-but-unreported ex-post escrows: the
	// deposits are held outside every account balance, so the checkpoint
	// must name them explicitly or restore would destroy the money. Restore
	// re-seeds the ledger escrow and the arbiter's pending set, and the
	// buyer's later value report settles against them exactly as if the
	// process had never restarted.
	PendingExPost []arbiter.PendingEscrow `json:"pending_ex_post,omitempty"`
	// Rng is the arbiter's audit-RNG state, stepped once per settled report;
	// carrying it keeps post-restore audit decisions identical to the
	// uninterrupted run.
	Rng uint64 `json:"rng,omitempty"`
	// Unmet carries the demand-signal counters (column -> times wanted but
	// unsupplied) so the negotiation service keeps its signal across a
	// restore.
	Unmet map[string]int `json:"unmet,omitempty"`
	// Purchases is the purchase history MayResell reads (buyer ->
	// dataset -> times bought): buyers × datasets in size, not one entry per
	// sale. Snapshots from before it was carried restore without it.
	Purchases map[string]map[string]int `json:"purchases,omitempty"`
	// LicenseHolders maps each sold exclusive or transfer dataset to the
	// license its first sale conferred: one entry per dataset, never one per
	// sale, and absent from a market that sells only open or no-resale data.
	// Snapshots from before it was carried restore without holders.
	LicenseHolders map[string]license.Holder `json:"license_holders,omitempty"`
	NextID         int                       `json:"next_id"`
}

// DatasetStates returns the currently shared datasets in share order, each
// with the relation version, metadata and license terms matching rounds
// consult. Snapshots embed this; the federation router also reads it to
// mirror a shard's catalog into a scratch platform for cross-shard matching.
func (p *Platform) DatasetStates() []DatasetState {
	a := p.Arbiter
	var out []DatasetState
	for _, id := range a.SharedIDs() {
		rel, err := a.Catalog.Get(catalog.DatasetID(id))
		if err != nil {
			continue
		}
		terms := a.Licenses.TermsFor(id)
		out = append(out, DatasetState{
			ID:       id,
			Owner:    a.Catalog.Owner(catalog.DatasetID(id)),
			Relation: rel,
			Meta:     a.MetaFor(id),
			License:  string(terms.Kind),
			TaxRate:  terms.ExclusivityTaxRate,
		})
	}
	return out
}

// Snapshot captures the platform checkpoint. Call it from a quiesced point
// (the engine holds its epoch lock while snapshotting) so the state is a
// consistent cut.
func (p *Platform) Snapshot() *PlatformSnapshot {
	p.mu.RLock()
	snap := &PlatformSnapshot{
		Design:  p.Design.Label,
		Sellers: append([]string(nil), p.sellerOrder...),
		Buyers:  append([]string(nil), p.buyerOrder...),
	}
	p.mu.RUnlock()

	a := p.Arbiter
	for _, name := range a.Ledger.Accounts() {
		snap.Accounts = append(snap.Accounts, AccountState{Name: name, Balance: a.Ledger.Balance(name)})
	}
	snap.Datasets = p.DatasetStates()
	for _, r := range a.OpenRequestStates() {
		spec, ok := EncodeRequest(r.Want, r.WTP)
		if !ok {
			continue // code-task requests are not durable
		}
		snap.Requests = append(snap.Requests, RequestState{ID: r.ID, Spec: spec})
	}
	snap.History = a.HistorySkeletons()
	snap.HistoryDropped = a.Settled() - len(snap.History)
	snap.PendingExPost = a.PendingEscrows()
	snap.Unmet = a.UnmetCounts()
	snap.Purchases = a.PurchaseCounts()
	snap.LicenseHolders = a.Licenses.Holders()
	snap.NextID = a.ReplayNextID()
	snap.Rng = a.RngState()
	return snap
}

// RestorePlatform builds a platform from a checkpoint: participants are
// recreated in their original order (seller-side mechanism seeds depend on
// it), datasets re-ingested in share order (rebuilding profiles and the
// discovery index), balances applied exactly, and open requests re-filed
// under their original IDs. The options' design must match the snapshot's
// unless explicitly overridden.
func RestorePlatform(opts Options, snap *PlatformSnapshot) (*Platform, error) {
	if snap == nil {
		return NewPlatform(opts)
	}
	if opts.Design == "" && opts.CustomDesign == nil {
		opts.Design = snap.Design
	}
	p, err := NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	for _, s := range snap.Sellers {
		p.Seller(s)
	}
	for _, b := range snap.Buyers {
		p.Buyer(b, 0)
	}
	for _, d := range snap.Datasets {
		terms := license.Terms{Kind: license.Kind(d.License), ExclusivityTaxRate: d.TaxRate}
		if err := p.ShareDataset(d.Owner, catalog.DatasetID(d.ID), d.Relation, d.Meta, terms); err != nil {
			return nil, fmt.Errorf("core: restore dataset %s: %w", d.ID, err)
		}
	}
	for _, acct := range snap.Accounts {
		if p.Arbiter.Ledger.Exists(acct.Name) {
			if acct.Balance > 0 {
				if err := p.Arbiter.Ledger.Deposit(acct.Name, acct.Balance); err != nil {
					return nil, fmt.Errorf("core: restore account %s: %w", acct.Name, err)
				}
			}
		} else if err := p.Arbiter.Ledger.Open(acct.Name, acct.Balance); err != nil {
			return nil, fmt.Errorf("core: restore account %s: %w", acct.Name, err)
		}
	}
	for _, r := range snap.Requests {
		want, f, err := r.Spec.Decode()
		if err != nil {
			return nil, fmt.Errorf("core: restore request %s: %w", r.ID, err)
		}
		if err := p.Arbiter.RestoreRequest(r.ID, want, f); err != nil {
			return nil, fmt.Errorf("core: restore request %s: %w", r.ID, err)
		}
	}
	p.Arbiter.RestoreHistory(snap.History, snap.HistoryDropped)
	if err := p.Arbiter.RestorePendingEscrows(snap.PendingExPost); err != nil {
		return nil, err
	}
	p.Arbiter.AddUnmet(snap.Unmet)
	p.Arbiter.RestorePurchases(snap.Purchases)
	p.Arbiter.Licenses.RestoreHolders(snap.LicenseHolders)
	p.Arbiter.RestoreNextID(snap.NextID)
	p.Arbiter.RestoreRngState(snap.Rng)
	return p, nil
}

// SettleReport settles a pending ex-post transaction with the buyer's
// reported value and returns the realized outcome — the engine's hook for
// logging value-reported events.
func (p *Platform) SettleReport(txID string, reported, trueValue float64) (arbiter.ReportOutcome, error) {
	return p.Arbiter.SettleReport(txID, reported, trueValue)
}

// ReplayReport re-applies one report settlement from a durable event — the
// platform-level hook the engine's replay path calls for value-reported
// records.
func (p *Platform) ReplayReport(rr arbiter.ReplayedReport) error {
	return p.Arbiter.ReplayReport(rr)
}

// ReplaySettlement re-applies one settled sale from a durable event — the
// platform-level hook the engine's replay path calls for tx-settled records.
func (p *Platform) ReplaySettlement(rs arbiter.ReplayedSettlement) error {
	return p.Arbiter.ReplaySettlement(rs)
}
