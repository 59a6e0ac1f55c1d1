// Package dmms exposes the data market platform over HTTP: the wire-level
// Data Market Management System. Sellers and buyers run remote platforms
// (SMP/BMP) that talk JSON to the arbiter (AMP) — the deployment shape of
// paper Fig. 2. Only serializable WTP tasks travel over the wire (coverage
// and classifier packages); arbitrary code packages stay in-process.
package dmms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/mltask"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

// Server is the DMMS's HTTP API over a market (internal/federation), the one
// cmd/dmgateway serves. Submissions are routed to their home shard and return
// tickets immediately, epochs (and, for wants spanning shards, the
// cross-shard coordinator's rounds) clear the
// market in the background, and clients follow progress via tickets and the
// per-shard event logs. The read views (/engine/stats, /settlements,
// /history, /demand) merge every shard, and GET /history?tx=<id> hands a
// buyer the mashup a sale delivered while its shard's history window holds
// it. There are no synchronous mutations: they would bypass routing and the
// durable event log.
//
// Routes gain per-route count and latency series once a telemetry registry
// is wired. hm is an atomic pointer so metrics can be wired after
// construction — the gateway builds the server first — without racing
// in-flight requests.
type Server struct {
	mux    *http.ServeMux
	hm     atomic.Pointer[httpMetrics]
	market *federation.Market
}

// httpMetrics bundles the per-route instruments with the registry that
// backs GET /metrics.
type httpMetrics struct {
	reg  *obs.Registry
	reqs *obs.CounterVec   // dmms_http_requests_total{route,code}
	dur  *obs.HistogramVec // dmms_http_request_seconds{route}
}

// SetMetrics wires a telemetry registry: every route gains request-count and
// latency series, and GET /metrics serves the registry's Prometheus text.
// Pass nil to disable (the endpoint answers 503 again).
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.hm.Store(nil)
		return
	}
	s.hm.Store(&httpMetrics{
		reg: reg,
		reqs: reg.NewCounterVec("dmms_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		dur: reg.NewHistogramVec("dmms_http_request_seconds",
			"HTTP request latency by route pattern.", obs.DefBuckets, "route"),
	})
}

// NewMarketServer builds the HTTP front end over a market. The caller owns
// the market's lifecycle (Start/Stop).
func NewMarketServer(m *federation.Market) *Server {
	s := &Server{mux: http.NewServeMux(), market: m}
	s.handle("POST /async/participants", s.handleParticipants)
	s.handle("POST /async/datasets", s.handleDatasets)
	s.handle("POST /async/requests", s.handleRequests)
	s.handle("POST /async/report", s.handleReport)
	s.handle("GET /async/tickets/{id}", s.handleTicket)
	s.handle("GET /events", s.handleEvents)
	s.handle("POST /epoch", s.handleEpoch)
	s.handle("GET /engine/stats", s.handleStats)
	s.handle("GET /settlements", s.handleSettlements)
	s.handle("GET /history", s.handleHistory)
	s.handle("GET /demand", s.handleDemand)
	s.handle("GET /balance", s.handleBalance)
	s.handle("GET /designs", s.handleDesigns)
	s.handle("POST /snapshot", s.handleSnapshot)
	// Telemetry exposition — deliberately uninstrumented: a scrape should
	// never perturb the series it is reading.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// NewEngineServer builds the HTTP front end over one platform + engine pair,
// adopted as a one-shard in-memory market. The caller owns the engine's
// lifecycle (Start/Stop).
func NewEngineServer(p *core.Platform, eng *engine.Engine) *Server {
	return NewMarketServer(federation.Adopt(p, eng))
}

// handle registers an instrumented route. The metric label is the pattern's
// path part ("/async/tickets/{id}"), so path parameters never explode the
// series cardinality.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	s.mux.HandleFunc(pattern, s.instrument(route, h))
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route latency and count series. With
// no metrics wired it is a plain passthrough.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hm := s.hm.Load()
		if hm == nil {
			h(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		hm.dur.With(route).Observe(time.Since(start).Seconds())
		hm.reqs.With(route, strconv.Itoa(rec.code)).Inc()
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hm := s.hm.Load()
	if hm == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("dmms: metrics disabled (run the gateway with -metrics)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = hm.reg.WritePrometheus(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// readJSON decodes the request body into v; on a malformed body it answers
// 400 and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// PriorityHeader carries a request's priority class ("low" | "normal" |
// "high" or an integer) on POST /async/requests; it overrides the JSON
// body's priority field.
const PriorityHeader = "X-DMMS-Priority"

// writeSubmitErr maps an engine intake error onto the wire: admission
// rejections become 429 Too Many Requests with a Retry-After header (whole
// seconds, rounded up) so well-behaved clients back off; anything else is a
// plain 400.
func writeSubmitErr(w http.ResponseWriter, err error) {
	var oe *engine.OverloadError
	if errors.As(err, &oe) {
		secs := int(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// ParticipantReq registers a buyer or seller account.
type ParticipantReq struct {
	Name  string  `json:"name"`
	Funds float64 `json:"funds"`
}

// maxFunds is the smallest amount whose micro-units overflow the ledger's
// int64 balances.
const maxFunds = math.MaxInt64 / 1e6

// checkFunds refuses registration funds the ledger cannot hold: negative
// amounts and amounts at or above maxFunds.
func checkFunds(funds float64) error {
	if !(funds >= 0 && funds < maxFunds) {
		return fmt.Errorf("dmms: funds %g must be >= 0 and < %g", funds, maxFunds)
	}
	return nil
}

// DatasetReq shares a dataset with the arbiter.
type DatasetReq struct {
	Seller   string             `json:"seller"`
	ID       string             `json:"id"`
	Relation *relation.Relation `json:"relation"`
	License  string             `json:"license"` // open|no-resale|exclusive|transfer
	TaxRate  float64            `json:"tax_rate,omitempty"`
	Author   string             `json:"author,omitempty"`
}

// datasetTerms validates a DatasetReq and derives its license terms and
// metadata.
func datasetTerms(req DatasetReq) (license.Terms, wtp.DatasetMeta, error) {
	if req.Relation == nil || req.ID == "" || req.Seller == "" {
		return license.Terms{}, wtp.DatasetMeta{}, fmt.Errorf("dmms: seller, id and relation are required")
	}
	kind := license.Kind(req.License)
	if req.License == "" {
		kind = license.Open
	}
	terms := license.Terms{Kind: kind, ExclusivityTaxRate: req.TaxRate}
	meta := wtp.DatasetMeta{Dataset: req.ID, UpdatedAt: time.Now(), Author: req.Author, HasProvenance: true}
	return terms, meta, nil
}

// TaskSpec is the serializable task package of a WTP-function.
type TaskSpec struct {
	Kind string `json:"kind"` // "coverage" | "classifier"
	// Coverage.
	WantRows int `json:"want_rows,omitempty"`
	// Classifier.
	Features []string `json:"features,omitempty"`
	Label    string   `json:"label,omitempty"`
	Model    string   `json:"model,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

// CurvePointSpec is one WTP price point.
type CurvePointSpec struct {
	MinSatisfaction float64 `json:"min_satisfaction"`
	Price           float64 `json:"price"`
}

// RequestReq files a buyer's data need.
type RequestReq struct {
	Buyer   string              `json:"buyer"`
	Columns []string            `json:"columns"`
	Aliases map[string][]string `json:"aliases,omitempty"`
	Task    TaskSpec            `json:"task"`
	Curve   []CurvePointSpec    `json:"curve"`
	MinRows int                 `json:"min_rows,omitempty"`
	// Priority is the request's priority class ("low" | "normal" | "high");
	// the X-DMMS-Priority header overrides it. Async endpoint only.
	Priority string `json:"priority,omitempty"`
}

// buildRequest turns the wire form into the arbiter's Want + WTP-function.
func buildRequest(req RequestReq) (dod.Want, *wtp.Function, error) {
	var task wtp.Task
	switch req.Task.Kind {
	case "classifier":
		task = wtp.ClassifierTask{Spec: mltask.ClassifierTask{
			Features: req.Task.Features, Label: req.Task.Label,
			Model: mltask.ModelKind(req.Task.Model), Seed: req.Task.Seed}}
	case "coverage", "":
		task = wtp.CoverageTask{Columns: req.Columns, WantRows: req.Task.WantRows}
	default:
		return dod.Want{}, nil, fmt.Errorf("dmms: unknown task kind %q", req.Task.Kind)
	}
	f := &wtp.Function{Buyer: req.Buyer, Task: task}
	for _, p := range req.Curve {
		f.Curve = append(f.Curve, wtp.CurvePoint{MinSatisfaction: p.MinSatisfaction, Price: p.Price})
	}
	f.Constraints.MinRows = req.MinRows
	want := dod.Want{Columns: req.Columns, Aliases: req.Aliases, MinRows: req.MinRows}
	return want, f, nil
}

// TxView is the wire form of a transaction.
type TxView struct {
	ID           string             `json:"id"`
	RequestID    string             `json:"request_id,omitempty"`
	Buyer        string             `json:"buyer"`
	Price        float64            `json:"price"`
	Satisfaction float64            `json:"satisfaction"`
	Datasets     []string           `json:"datasets"`
	SellerCuts   map[string]float64 `json:"seller_cuts"`
	ExPost       bool               `json:"ex_post"`
	Plan         []string           `json:"plan"`
	Mashup       *relation.Relation `json:"mashup,omitempty"`
}

func txView(tx *arbiter.Transaction, includeData bool) TxView {
	v := TxView{
		ID: tx.ID, RequestID: tx.RequestID, Buyer: tx.Buyer, Price: tx.Price, Satisfaction: tx.Satisfaction,
		Datasets: tx.Datasets, SellerCuts: tx.SellerCuts, ExPost: tx.ExPost, Plan: tx.Plan,
	}
	if includeData {
		v.Mashup = tx.Mashup
	}
	return v
}

// ReportReq settles an ex-post transaction.
type ReportReq struct {
	TxID      string  `json:"tx_id"`
	Reported  float64 `json:"reported"`
	TrueValue float64 `json:"true_value"`
}

// --- market handlers ------------------------------------------------------

// TicketResp acknowledges an async submission.
type TicketResp struct {
	Ticket string `json:"ticket"`
}

// writeTicket answers an async submission: 202 with its ticket, or the
// intake error (see writeSubmitErr).
func writeTicket(w http.ResponseWriter, ticket string, err error) {
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, TicketResp{Ticket: ticket})
}

func (s *Server) handleParticipants(w http.ResponseWriter, r *http.Request) {
	var req ParticipantReq
	if !readJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: name is required"))
		return
	}
	if err := checkFunds(req.Funds); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticket, err := s.market.SubmitRegister(req.Name, req.Funds)
	writeTicket(w, ticket, err)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var req DatasetReq
	if !readJSON(w, r, &req) {
		return
	}
	terms, meta, err := datasetTerms(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticket, err := s.market.SubmitShare(req.Seller, catalog.DatasetID(req.ID), req.Relation, meta, terms)
	writeTicket(w, ticket, err)
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	var req RequestReq
	if !readJSON(w, r, &req) {
		return
	}
	want, f, err := buildRequest(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	label := req.Priority
	if h := r.Header.Get(PriorityHeader); h != "" {
		label = h
	}
	priority, err := engine.ParsePriority(label)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticket, err := s.market.SubmitRequestPriority(want, f, priority)
	writeTicket(w, ticket, err)
}

// handleReport queues an ex-post value report through the owning shard's
// engine, so the settlement is epoch-applied and event-logged
// (value-reported).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportReq
	if !readJSON(w, r, &req) {
		return
	}
	if req.TxID == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: tx_id is required"))
		return
	}
	ticket, err := s.market.SubmitReport(req.TxID, req.Reported, req.TrueValue)
	writeTicket(w, ticket, err)
}

// TicketView is a ticket plus its stamped shard-local pipeline trace (present
// only for shard tickets, when telemetry is on and the span has not been
// evicted).
type TicketView struct {
	engine.Ticket
	Trace map[obs.Stage]time.Time `json:"trace,omitempty"`
}

func (s *Server) handleTicket(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.market.Ticket(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dmms: unknown ticket %q", id))
		return
	}
	if t.Status == engine.TicketRetired {
		// Issued, finished, and since retired from the ticket window: the
		// outcome is one GET /events away, unlike an ID never issued.
		writeErr(w, http.StatusGone, fmt.Errorf(
			"dmms: ticket %q is no longer held; its outcome is in the event log (GET /events)", id))
		return
	}
	writeJSON(w, http.StatusOK, TicketView{Ticket: t, Trace: s.market.TicketTrace(id)})
}

// shardParam resolves the optional ?shard=i query parameter: (i, nil) when
// given and in range, (-1, nil) when absent.
func (s *Server) shardParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n >= s.market.NumShards() {
		return 0, fmt.Errorf("dmms: shard must be an integer in [0,%d)", s.market.NumShards())
	}
	return n, nil
}

// handleEvents serves one shard's event log. Event logs are strictly
// per-shard orderings (seq numbers restart per shard), so a multi-shard
// market requires an explicit ?shard=i rather than inventing a merged order.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	shard, err := s.shardParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if shard < 0 {
		if s.market.NumShards() > 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf(
				"dmms: event logs are per shard on a federated market; pass ?shard=i (0..%d)", s.market.NumShards()-1))
			return
		}
		shard = 0
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: bad after cursor %q", v))
			return
		}
		after = n
	}
	// The log holds each event as the JSON served here, without its
	// submission payload: payloads exist for WAL replay and carry the full
	// shared relations — data the market sells, not a free download.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.market.Shards()[shard].Engine.Log().SinceJSON(after))
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	epoch, ran := s.market.TriggerEpoch()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "ran": ran})
}

// FederationDetail is the federation block of the stats view.
type FederationDetail struct {
	Shards             int            `json:"shards"`
	CoordinatorPending int            `json:"coordinator_pending"`
	XTxCommitted       uint64         `json:"xtx_committed"`
	XTxAborted         uint64         `json:"xtx_aborted"`
	PerShard           []engine.Stats `json:"per_shard,omitempty"`
}

// StatsView is GET /engine/stats: the market-wide engine.Stats shape — at
// one shard, that engine's own Stats — plus a federation block (shard count,
// coordinator counters, and — with ?per-shard=1 — each shard's own stats).
type StatsView struct {
	engine.Stats
	Federation FederationDetail `json:"federation"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	shard, err := s.shardParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if shard >= 0 {
		writeJSON(w, http.StatusOK, s.market.ShardStats()[shard])
		return
	}
	pending, settled, aborted := s.market.CoordStats()
	view := StatsView{
		Stats: s.market.Stats(),
		Federation: FederationDetail{
			Shards:             s.market.NumShards(),
			CoordinatorPending: pending,
			XTxCommitted:       settled,
			XTxAborted:         aborted,
		},
	}
	if q := r.URL.Query().Get("per-shard"); q == "1" || q == "true" {
		view.Federation.PerShard = s.market.ShardStats()
	}
	writeJSON(w, http.StatusOK, view)
}

// SettlementView is the wire form of one settlement-book entry.
type SettlementView struct {
	TxID       string             `json:"tx_id"`
	Epoch      uint64             `json:"epoch"`
	Buyer      string             `json:"buyer"`
	Price      float64            `json:"price"`
	ArbiterCut float64            `json:"arbiter_cut"`
	SellerCuts map[string]float64 `json:"seller_cuts,omitempty"`
	ExPost     bool               `json:"ex_post,omitempty"`
}

// viewShards returns the shards a merged read view covers: all of them, or
// only ?shard=i.
func (s *Server) viewShards(r *http.Request) ([]*federation.Shard, error) {
	shard, err := s.shardParam(r)
	if err != nil || shard < 0 {
		return s.market.Shards(), err
	}
	return s.market.Shards()[shard : shard+1], nil
}

// handleSettlements merges every shard's settlement book, with TxIDs in
// federation form. Each shard's entries and its conservation verdict come
// from one cut of its book — the archived prefix streamed from the book
// archive, then the entries held in memory. Conserved is the AND across
// shards — cross-shard transactions move value between shard ledgers, so
// only the market-wide view is meaningful. ?shard=i narrows to one shard.
func (s *Server) handleSettlements(w http.ResponseWriter, r *http.Request) {
	shards, err := s.viewShards(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cuts := make([]ledger.BookCut, len(shards))
	for i, sh := range shards {
		cuts[i] = sh.Engine.Settlements().Cut()
	}
	body, err := settlementsBody(cuts, func(i int, tx string) string { return s.market.ShardID(shards[i].Index, tx) })
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// settlementsBody encodes the /settlements body over the cuts, txID giving
// cut i's TxIDs their federation form: the bytes writeJSON writes for
// {"settlements": […SettlementView], "conserved": …}, encoded one entry at a
// time as the cuts stream, so no view of the whole book is built.
func settlementsBody(cuts []ledger.BookCut, txID func(i int, tx string) string) ([]byte, error) {
	conserved := true
	for _, c := range cuts {
		conserved = conserved && c.Conserved()
	}
	buf := bytes.NewBufferString(`{"conserved":` + strconv.FormatBool(conserved) + `,"settlements":[`)
	enc := json.NewEncoder(buf)
	sellerCuts, sep := map[string]float64{}, ""
	for i, c := range cuts {
		err := c.Each(func(st ledger.Settlement) error {
			v := SettlementView{
				TxID: txID(i, st.TxID), Epoch: st.Epoch, Buyer: st.Buyer,
				Price: st.Price.Float(), ArbiterCut: st.ArbiterCut.Float(), ExPost: st.ExPost,
			}
			if len(st.SellerCuts) > 0 {
				clear(sellerCuts)
				for name, c := range st.SellerCuts {
					sellerCuts[name] = c.Float()
				}
				v.SellerCuts = sellerCuts
			}
			buf.WriteString(sep)
			sep = ","
			if err := enc.Encode(&v); err != nil {
				return err
			}
			buf.Truncate(buf.Len() - 1) // Encode's newline
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	buf.WriteString("]}\n")
	return buf.Bytes(), nil
}

// HistoryResp is GET /history: the most recent completed transactions — each
// arbiter keeps a bounded window, oldest first — and how many were ever
// completed. /settlements lists every settlement.
type HistoryResp struct {
	Transactions []TxView `json:"transactions"`
	Total        int      `json:"total"`
}

// handleHistory merges every shard arbiter's history window (without mashup
// payloads), IDs in federation form, with the all-time total. ?shard=i
// narrows to one shard; ?tx=<id> delivers one transaction instead.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("tx"); id != "" {
		s.deliver(w, id)
		return
	}
	shards, err := s.viewShards(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := HistoryResp{Transactions: []TxView{}}
	for _, sh := range shards {
		resp.Total += sh.Platform.Arbiter.Settled()
		for _, tx := range sh.Platform.Arbiter.History() {
			v := txView(tx, false)
			v.ID = s.market.ShardID(sh.Index, v.ID)
			resp.Transactions = append(resp.Transactions, v)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// deliver answers GET /history?tx=<id>, id in federation form: the
// transaction's TxView with the mashup the buyer paid for, while its shard's
// history window holds it with a relation. Otherwise it answers 404 and says
// why: the window never held the ID or has moved past it, the sale was
// restored at boot from a snapshot or the WAL (whose skeletons carry no
// mashup). A cross-shard sale is held, with its mashup, by its buyer's home
// shard, under the ID its ticket carries.
func (s *Server) deliver(w http.ResponseWriter, id string) {
	for _, sh := range s.market.Shards() {
		local, ok := strings.CutPrefix(id, s.market.ShardID(sh.Index, ""))
		if !ok {
			continue
		}
		for _, tx := range sh.Platform.Arbiter.History() {
			if tx.ID != local {
				continue
			}
			if tx.Mashup == nil {
				writeErr(w, http.StatusNotFound, fmt.Errorf(
					"dmms: transaction %q was restored from the durable log, which keeps no mashup", id))
				return
			}
			v := txView(tx, true)
			v.ID = id
			writeJSON(w, http.StatusOK, v)
			return
		}
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf(
		"dmms: transaction %q is not in the history window (each shard holds its newest %d sales; /settlements lists every sale)",
		id, retain.Sizes().History))
}

// handleDemand merges the shards' unmet-demand signals: counts sum per
// column, strongest first. ?shard=i narrows to one shard.
func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	shards, err := s.viewShards(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	counts := map[string]int{}
	for _, sh := range shards {
		for col, n := range sh.Platform.Arbiter.UnmetCounts() {
			counts[col] += n
		}
	}
	writeJSON(w, http.StatusOK, arbiter.DemandFromCounts(counts))
}

func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request) {
	account := r.URL.Query().Get("account")
	if account == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: account query parameter required"))
		return
	}
	bal, ok := s.market.Balance(account)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dmms: unknown account %q", account))
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"balance": bal.Float()})
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"design": s.market.Shards()[0].Platform.Design.Label,
		"shards": s.market.NumShards(),
	})
}

// SnapshotResp reports the checkpoints POST /snapshot wrote: one path per
// shard, plus shard 0's path and the last event seq it covers (all there is
// on a one-shard market).
type SnapshotResp struct {
	Path  string   `json:"path"`
	Seq   int      `json:"seq"`
	Paths []string `json:"paths"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	cps, err := s.market.SnapshotAll()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, federation.ErrNoSnapshotLineage) {
			code = http.StatusServiceUnavailable
			err = fmt.Errorf("dmms: no snapshot store configured (run the gateway with -wal-dir): %w", err)
		}
		writeErr(w, code, err)
		return
	}
	resp := SnapshotResp{Path: cps[0].Path, Seq: cps[0].Seq}
	for _, cp := range cps {
		resp.Paths = append(resp.Paths, cp.Path)
	}
	writeJSON(w, http.StatusOK, resp)
}
