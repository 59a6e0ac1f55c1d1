package dmms

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// DefaultTimeout bounds every client call that does not carry its own
// context. Without it, a wedged server (or a half-open connection) hangs the
// caller forever — exactly the failure mode supervised builds exist to stop
// on the server side.
const DefaultTimeout = 30 * time.Second

// defaultHTTP is the transport used when Client.HTTP is nil, so a zero-value
// Client{BaseURL: ...} is usable and timeout-bounded rather than a
// nil-pointer panic waiting to happen.
var defaultHTTP = &http.Client{Timeout: DefaultTimeout}

// OverloadedError is returned when the server sheds load (HTTP 429 from
// admission control): back off for RetryAfter before resubmitting.
type OverloadedError struct {
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("dmms: overloaded, retry after %v: %s", e.RetryAfter, e.Msg)
}

// ErrTicketRetired is returned (wrapped) by the ticket calls when the server
// answers 410 Gone: the ticket was issued and reached a terminal state, but
// has since left the gateway's ticket window. Its outcome is in the event log
// (Events).
var ErrTicketRetired = errors.New("dmms: ticket retired")

// Client is the tests' Go client for the DMMS server: the *Async
// submissions, tickets, events, stats, settlements, Snapshot, History and
// Balance.
//
// HTTP may be left nil: calls then use a shared client with DefaultTimeout.
// Every method also has ctx-threaded plumbing underneath — the *Ctx variants
// expose it for per-call deadlines and cancellation.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient targets a DMMS server with the default timeout-bounded transport.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// httpClient returns the transport, falling back to the shared
// timeout-bounded default when HTTP is nil or a zero-value client that would
// otherwise wait forever.
func (c *Client) httpClient() *http.Client {
	if c.HTTP == nil {
		return defaultHTTP
	}
	if c.HTTP.Timeout == 0 && c.HTTP == http.DefaultClient {
		// http.DefaultClient has no timeout; an unreachable or wedged server
		// would hang the caller forever. Substitute the bounded default.
		return defaultHTTP
	}
	return c.HTTP
}

func (c *Client) post(path string, body, out any) error {
	return c.postCtx(context.Background(), path, body, out, nil)
}

func (c *Client) postHeaders(path string, body, out any, headers map[string]string) error {
	return c.postCtx(context.Background(), path, body, out, headers)
}

func (c *Client) postCtx(ctx context.Context, path string, body, out any, headers map[string]string) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

func (c *Client) get(path string, out any) error {
	return c.getCtx(context.Background(), path, out)
}

func (c *Client) getCtx(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &e)
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				retry = time.Duration(secs) * time.Second
			}
			return &OverloadedError{Msg: e.Error, RetryAfter: retry}
		}
		if resp.StatusCode == http.StatusGone {
			return fmt.Errorf("%w: %s", ErrTicketRetired, e.Error)
		}
		if e.Error != "" {
			return fmt.Errorf("dmms: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("dmms: %s", resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// History fetches the most recent completed transactions (without mashup
// payloads; the server keeps a bounded window) and the all-time total.
func (c *Client) History() ([]TxView, int, error) {
	var out HistoryResp
	if err := c.get("/history", &out); err != nil {
		return nil, 0, err
	}
	return out.Transactions, out.Total, nil
}

// Balance fetches an account balance.
func (c *Client) Balance(account string) (float64, error) {
	var out map[string]float64
	if err := c.get("/balance?account="+account, &out); err != nil {
		return 0, err
	}
	return out["balance"], nil
}

// RegisterAsync queues a participant registration and returns its ticket.
func (c *Client) RegisterAsync(name string, funds float64) (string, error) {
	var out TicketResp
	if err := c.post("/async/participants", ParticipantReq{Name: name, Funds: funds}, &out); err != nil {
		return "", err
	}
	return out.Ticket, nil
}

// ShareDatasetAsync queues a dataset share and returns its ticket.
func (c *Client) ShareDatasetAsync(seller, id string, rel *relation.Relation, licenseKind string) (string, error) {
	var out TicketResp
	req := DatasetReq{Seller: seller, ID: id, Relation: rel, License: licenseKind}
	if err := c.post("/async/datasets", req, &out); err != nil {
		return "", err
	}
	return out.Ticket, nil
}

// SubmitRequestAsync queues a data need and returns its ticket.
func (c *Client) SubmitRequestAsync(req RequestReq) (string, error) {
	var out TicketResp
	if err := c.post("/async/requests", req, &out); err != nil {
		return "", err
	}
	return out.Ticket, nil
}

// SubmitRequestAsyncPriority queues a data need under a priority class
// ("low" | "normal" | "high"), sent as the X-DMMS-Priority header. A 429
// response surfaces as *OverloadedError with the server's retry-after hint.
func (c *Client) SubmitRequestAsyncPriority(req RequestReq, priority string) (string, error) {
	var out TicketResp
	hdr := map[string]string{PriorityHeader: priority}
	if err := c.postHeaders("/async/requests", req, &out, hdr); err != nil {
		return "", err
	}
	return out.Ticket, nil
}

// ReportAsync queues an ex-post value report and returns its ticket; the
// settlement runs in an epoch and is published as a value-reported event.
// Poll the ticket for the realized payment (Ticket.Price).
func (c *Client) ReportAsync(txID string, reported, trueValue float64) (string, error) {
	var out TicketResp
	req := ReportReq{TxID: txID, Reported: reported, TrueValue: trueValue}
	if err := c.post("/async/report", req, &out); err != nil {
		return "", err
	}
	return out.Ticket, nil
}

// Ticket polls one submission's state.
func (c *Client) Ticket(id string) (engine.Ticket, error) {
	return c.TicketCtx(context.Background(), id)
}

// TicketCtx polls one submission's state under a caller-supplied context.
func (c *Client) TicketCtx(ctx context.Context, id string) (engine.Ticket, error) {
	var out engine.Ticket
	if err := c.getCtx(ctx, "/async/tickets/"+id, &out); err != nil {
		return engine.Ticket{}, err
	}
	return out, nil
}

// WaitTicket polls a ticket until it reaches a terminal status or the
// timeout elapses.
func (c *Client) WaitTicket(id string, timeout time.Duration) (engine.Ticket, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitTicketCtx(ctx, id)
}

// WaitTicketCtx polls a ticket until it reaches a terminal status or ctx
// ends — the cancellable form for callers supervising many waits at once.
func (c *Client) WaitTicketCtx(ctx context.Context, id string) (engine.Ticket, error) {
	var last engine.Ticket
	for {
		t, err := c.TicketCtx(ctx, id)
		if err != nil {
			return engine.Ticket{}, err
		}
		if t.Status != engine.TicketQueued && t.Status != engine.TicketApplied {
			return t, nil
		}
		last = t
		select {
		case <-ctx.Done():
			return last, fmt.Errorf("dmms: ticket %s still %s: %w", id, last.Status, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Events fetches event-log records with Seq > after.
func (c *Client) Events(after int) ([]engine.Event, error) {
	var out []engine.Event
	if err := c.get(fmt.Sprintf("/events?after=%d", after), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// TriggerEpoch forces one engine epoch; it returns the epoch number and
// whether any work ran.
func (c *Client) TriggerEpoch() (uint64, bool, error) {
	var out struct {
		Epoch uint64 `json:"epoch"`
		Ran   bool   `json:"ran"`
	}
	if err := c.post("/epoch", struct{}{}, &out); err != nil {
		return 0, false, err
	}
	return out.Epoch, out.Ran, nil
}

// EngineStats fetches the engine's counters.
func (c *Client) EngineStats() (engine.Stats, error) {
	return c.EngineStatsCtx(context.Background())
}

// EngineStatsCtx fetches the engine's counters under a caller-supplied
// context.
func (c *Client) EngineStatsCtx(ctx context.Context) (engine.Stats, error) {
	var out engine.Stats
	if err := c.getCtx(ctx, "/engine/stats", &out); err != nil {
		return engine.Stats{}, err
	}
	return out, nil
}

// Snapshot asks the server to write a durable checkpoint, returning its
// path and the last event seq it covers.
func (c *Client) Snapshot() (string, int, error) {
	var out SnapshotResp
	if err := c.post("/snapshot", struct{}{}, &out); err != nil {
		return "", 0, err
	}
	return out.Path, out.Seq, nil
}

// Settlements fetches the settlement book and its conservation verdict.
func (c *Client) Settlements() ([]SettlementView, bool, error) {
	var out struct {
		Settlements []SettlementView `json:"settlements"`
		Conserved   bool             `json:"conserved"`
	}
	if err := c.get("/settlements", &out); err != nil {
		return nil, false, err
	}
	return out.Settlements, out.Conserved, nil
}

// TestZeroValueClientIsBoundedAndUsable pins the nil-transport fix: a
// zero-value Client{BaseURL: ...} (and one built over http.DefaultClient)
// must not nil-panic and must ride the shared timeout-bounded transport, and
// the *Ctx call variants must honor a per-call deadline against a wedged
// server instead of hanging forever.
func TestZeroValueClientIsBoundedAndUsable(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/balance":
			_, _ = w.Write([]byte(`{"balance": 42}`))
		default: // wedged endpoint: holds the connection open until test end
			select {
			case <-block:
			case <-r.Context().Done():
			}
		}
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL} // zero value: HTTP nil
	bal, err := c.Balance("b1")
	if err != nil || bal != 42 {
		t.Fatalf("zero-value client Balance = %v, %v; want 42, nil", bal, err)
	}
	if got := c.httpClient(); got != defaultHTTP {
		t.Fatal("nil HTTP must fall back to the shared bounded transport")
	}
	naive := &Client{BaseURL: srv.URL, HTTP: http.DefaultClient}
	if got := naive.httpClient(); got != defaultHTTP {
		t.Fatal("timeout-less http.DefaultClient must be substituted with the bounded default")
	}
	custom := &http.Client{Timeout: time.Minute}
	if got := (&Client{BaseURL: srv.URL, HTTP: custom}).httpClient(); got != custom {
		t.Fatal("an explicitly configured transport must be respected")
	}

	// A wedged endpoint returns at the per-call deadline, not never.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.EngineStatsCtx(ctx); err == nil {
		t.Fatal("EngineStatsCtx against a wedged server must fail at the deadline")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("EngineStatsCtx hung %v past its 50ms deadline", took)
	}
}
