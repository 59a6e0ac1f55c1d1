package dmms

import (
	"fmt"
	"net/http"

	"repro/internal/catalog"
	"repro/internal/core"
)

// SyncServer is the synchronous HTTP front end cmd/dmmsd serves: every call
// runs inline against one core.Platform, the market clears only when a client
// POSTs /match, and a matched mashup relation is delivered in the response —
// the only place one travels over HTTP. There is no engine, no event log and
// no durability here; the async gateway surface is Server.
type SyncServer struct {
	routeSet
	platform *core.Platform
}

// NewServer builds the synchronous HTTP front end over a platform.
func NewServer(p *core.Platform) *SyncServer {
	s := &SyncServer{routeSet: routeSet{mux: http.NewServeMux()}, platform: p}
	s.handle("POST /participants", s.handleParticipants)
	s.handle("POST /datasets", s.handleDatasets)
	s.handle("POST /requests", s.handleRequests)
	s.handle("POST /match", s.handleMatch)
	s.handle("POST /report", s.handleReport)
	s.handle("GET /history", s.handleHistory)
	s.handle("GET /demand", s.handleDemand)
	s.handle("GET /balance", s.handleBalance)
	s.handle("GET /designs", s.handleDesigns)
	s.handle("POST /save", s.handleSave)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *SyncServer) handleParticipants(w http.ResponseWriter, r *http.Request) {
	var req ParticipantReq
	if !readJSON(w, r, &req) {
		return
	}
	if err := checkFunds(req.Funds); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.platform.Arbiter.RegisterParticipant(req.Name, req.Funds); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

func (s *SyncServer) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var req DatasetReq
	if !readJSON(w, r, &req) {
		return
	}
	terms, meta, err := datasetTerms(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.platform.Arbiter.ShareDataset(req.Seller, catalog.DatasetID(req.ID), req.Relation, meta, terms); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
}

func (s *SyncServer) handleRequests(w http.ResponseWriter, r *http.Request) {
	var req RequestReq
	if !readJSON(w, r, &req) {
		return
	}
	want, f, err := buildRequest(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.platform.Arbiter.SubmitRequest(want, f)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"request_id": id})
}

// MatchResp reports one matching round.
type MatchResp struct {
	Transactions []TxView `json:"transactions"`
	Unsatisfied  []string `json:"unsatisfied"`
}

func (s *SyncServer) handleMatch(w http.ResponseWriter, r *http.Request) {
	res, err := s.platform.MatchRound()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := MatchResp{Unsatisfied: res.Unsatisfied}
	for _, tx := range res.Transactions {
		resp.Transactions = append(resp.Transactions, txView(tx, true))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *SyncServer) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportReq
	if !readJSON(w, r, &req) {
		return
	}
	paid, err := s.platform.Arbiter.ReportValue(req.TxID, req.Reported, req.TrueValue)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"paid": paid})
}

func (s *SyncServer) handleHistory(w http.ResponseWriter, r *http.Request) {
	resp := HistoryResp{Transactions: []TxView{}, Total: s.platform.Arbiter.Settled()}
	for _, tx := range s.platform.Arbiter.History() {
		resp.Transactions = append(resp.Transactions, txView(tx, false))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *SyncServer) handleDemand(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.platform.Arbiter.DemandSignals())
}

func (s *SyncServer) handleBalance(w http.ResponseWriter, r *http.Request) {
	account := r.URL.Query().Get("account")
	if account == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: account query parameter required"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{
		"balance": s.platform.Arbiter.Ledger.Balance(account).Float(),
	})
}

func (s *SyncServer) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"design": s.platform.Design.Label})
}

// SaveReq asks the server to persist its catalog to a directory.
type SaveReq struct {
	Dir string `json:"dir"`
}

func (s *SyncServer) handleSave(w http.ResponseWriter, r *http.Request) {
	var req SaveReq
	if !readJSON(w, r, &req) {
		return
	}
	if req.Dir == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: dir is required"))
		return
	}
	if err := s.platform.Arbiter.Catalog.SaveDir(req.Dir); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"saved": req.Dir})
}
