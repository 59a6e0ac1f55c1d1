package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

// EventKind classifies event-log records.
type EventKind string

// Event kinds, in rough lifecycle order.
const (
	EventEpochStart    EventKind = "epoch-start"
	EventRegistered    EventKind = "participant-registered"
	EventDatasetShared EventKind = "dataset-shared"
	EventRequestFiled  EventKind = "request-filed"
	EventRequestUnmet  EventKind = "request-unmet"
	EventTxSettled     EventKind = "tx-settled"
	EventRejected      EventKind = "submission-rejected"
	// EventRequestRejected is the aggregated audit record of admission
	// rejections (quota or epoch cap): one record per participant and
	// reason per epoch window, flushed at epoch end with the shed count.
	// Rejected requests never enter intake and have no tickets, and the
	// shedding path itself writes nothing — a flood of rejections costs
	// one log record per window, not one per request. Queue-depth sheds
	// are not logged at all.
	EventRequestRejected EventKind = "request-rejected"
	// EventRequestAged records the first time the matching policy's
	// per-epoch cap defers an open request past a round, carrying its age
	// in epochs. Later deferrals of the same request are not re-logged (at
	// most one record per request, so a standing backlog cannot amplify
	// the WAL every epoch).
	EventRequestAged EventKind = "request-aged"
	// EventValueReported records the settlement of an ex-post transaction on
	// the buyer's value report: the realized payment (escrow-capped, audit
	// effects applied) and the revenue fan-out. It carries everything replay
	// needs to repeat the transfers micro-unit exactly without re-running
	// the audit; the audit RNG is re-stepped instead, so later live reports
	// keep the uninterrupted run's schedule.
	EventValueReported EventKind = "value-reported"
	EventEpochEnd      EventKind = "epoch-end"

	// Cross-shard (federated) settlement records. A mashup whose candidate
	// datasets span arbiter shards settles via an escrow-style two-phase
	// commit: the federation coordinator drives prepare/commit/abort and each
	// participant shard records its own leg as an ordinary WAL event, so
	// recovery resolves in-doubt transactions from the logs alone. These are
	// deliberately NOT EventTxSettled — the settlement book (folded from
	// tx-settled) tracks only intra-shard settlements; federated ones are
	// surfaced by the coordinator.
	//
	// EventXTxPrepared (home shard): the buyer's funds for TxID are held in a
	// ledger escrow named after the transaction.
	// EventXTxCommitted with XTxRole "home": the escrow pays the arbiter, the
	// home-shard seller cuts transfer locally, and the remote cuts are
	// withdrawn from this shard's supply (they re-enter on the sellers'
	// shards, conserving the federation-wide total).
	// EventXTxCommitted with XTxRole "remote": this shard's sellers are paid
	// the recorded cuts out of thin air — the exact micro-units the home
	// shard withdrew.
	// EventXTxAborted (home shard): the escrow refunds the buyer in full.
	EventXTxPrepared  EventKind = "xtx-prepared"
	EventXTxCommitted EventKind = "xtx-committed"
	EventXTxAborted   EventKind = "xtx-aborted"
)

// Payload carries the full submission body of an event, so a write-ahead log
// of events is sufficient to rebuild the platform by replay. Only
// dataset-shared (Relation/Meta/License) and request-filed (Request) events
// carry one; a request whose task is a non-serializable code package has a
// nil payload and is not durable.
type Payload struct {
	// Share.
	Relation *relation.Relation `json:"relation,omitempty"`
	Meta     *wtp.DatasetMeta   `json:"meta,omitempty"`
	License  string             `json:"license,omitempty"`
	TaxRate  float64            `json:"tax_rate,omitempty"`
	// Request.
	Request *core.RequestSpec `json:"request,omitempty"`
}

// Event is one append-only log record. See the package documentation for the
// schema; fields are JSON-tagged because dmms serves them verbatim and the
// WAL (internal/wal) persists them as JSON records.
type Event struct {
	Seq          int                `json:"seq"`
	Epoch        uint64             `json:"epoch"`
	Kind         EventKind          `json:"kind"`
	At           time.Time          `json:"at"`
	Ticket       string             `json:"ticket,omitempty"`
	Participant  string             `json:"participant,omitempty"`
	Dataset      string             `json:"dataset,omitempty"`
	RequestID    string             `json:"request_id,omitempty"`
	TxID         string             `json:"tx_id,omitempty"`
	Price        float64            `json:"price,omitempty"`
	ArbiterCut   float64            `json:"arbiter_cut,omitempty"`
	SellerCuts   map[string]float64 `json:"seller_cuts,omitempty"`
	Satisfaction float64            `json:"satisfaction,omitempty"`
	Datasets     []string           `json:"datasets,omitempty"`
	ExPost       bool               `json:"ex_post,omitempty"`
	// ExPostShares are the per-owner revenue fractions fixed at delivery
	// (tx-settled, ex-post sales only); the later value-reported settlement
	// distributes by them, so replayed pendings split exactly like live
	// ones.
	ExPostShares map[string]float64 `json:"ex_post_shares,omitempty"`
	// Reported is the buyer's reported realized value (value-reported);
	// Price carries what was actually paid after audit and escrow cap.
	Reported float64 `json:"reported,omitempty"`
	// Audited records whether the arbiter verified the report
	// (value-reported) — transparency only; replay applies the logged
	// amounts either way.
	Audited bool `json:"audited,omitempty"`
	// Priority is the request's priority class (request-filed).
	Priority int `json:"priority,omitempty"`
	// Age is how many epochs the request had waited when the policy
	// deferred it (request-aged).
	Age uint64 `json:"age,omitempty"`
	// Count is the number of shed requests an aggregated request-rejected
	// record covers.
	Count uint64 `json:"count,omitempty"`
	// UnmetColumns carries the round's demand-signal increments on
	// epoch-end records, so Restore rebuilds the arbiter's unmet counters
	// without re-running matching.
	UnmetColumns map[string]int `json:"unmet_columns,omitempty"`
	// QuotaRefill is the fraction of the per-epoch quota this epoch end
	// refilled (epoch-end; omitted = full quantum). Ticker engines earn
	// refills by elapsed wall time, and replay applies the recorded
	// fraction instead of re-deriving it from a clock.
	QuotaRefill float64 `json:"quota_refill,omitempty"`
	// SubKind records the submission kind on rejection events, where it
	// cannot be inferred from the event kind; replay rebuilds the failed
	// ticket from it.
	SubKind SubmissionKind `json:"sub_kind,omitempty"`
	// XTxRole distinguishes the two legs of a federated commit record
	// (xtx-committed): "home" on the buyer's shard, "remote" on a seller
	// shard that only receives cuts.
	XTxRole string `json:"xtx_role,omitempty"`
	// RemoteCuts, on a home-leg xtx-committed record, are the seller cuts
	// settled on *other* shards. Replay withdraws their micro-unit sum from
	// the home ledger, mirroring the deposits the remote shards replay.
	RemoteCuts map[string]float64 `json:"remote_cuts,omitempty"`
	Err        string             `json:"error,omitempty"`
	Note       string             `json:"note,omitempty"`
	Payload    *Payload           `json:"payload,omitempty"`
}

// Persister receives every event's record — its JSON, byte for byte
// json.Marshal of the event, read-only and valid only for the call —
// synchronously at append time, before the event becomes visible to readers:
// the write-ahead hook. A persister that returns an error, or an event that cannot be
// encoded, wedges: the log stops forwarding records (so the durable prefix
// stays a prefix) and records the error, while in-memory operation
// continues. internal/wal provides the standard implementation.
type Persister interface {
	PersistRecord(seq int, kind EventKind, rec []byte) error
}

// readBacker is a Persister that can return what it persisted: the events
// with after < Seq <= upto, in order, from the first one it still retains
// (older ones may be pruned behind a snapshot). internal/wal's Log is one.
type readBacker interface {
	ReadBack(after, upto int) ([]Event, error)
}

// encode returns ev's wire form — its JSON without the payload, which the log
// holds and GET /events serves — and, if record is set, its record: the wire
// form with `,"payload":…` spliced in before its closing brace. Payload is
// Event's last field, so that is json.Marshal(ev); wire survives a bad payload.
func encode(ev Event, record bool) (wire, rec []byte, err error) {
	payload := ev.Payload
	ev.Payload = nil
	wire, err = json.Marshal(&ev)
	rec = wire
	if err == nil && record && payload != nil {
		var p []byte
		if p, err = json.Marshal(payload); err == nil {
			rec = slices.Concat(wire[:len(wire)-1], []byte(`,"payload":`), p, []byte{'}'})
		}
	}
	if err != nil {
		return wire, nil, fmt.Errorf("engine: encode event %d: %w", ev.Seq, err)
	}
	return wire, rec, nil
}

// wireOf returns ev's wire form or, if ev cannot be encoded (a NaN amount), a
// stand-in that keeps its place in the log and says why it has no content.
func wireOf(ev Event) []byte {
	wire, _, err := encode(ev, false)
	if err != nil {
		wire, _, _ = encode(Event{Seq: ev.Seq, Epoch: ev.Epoch, Kind: ev.Kind, Err: err.Error()}, false)
	}
	return wire
}

// Record returns ev's record as the log encodes it: json.Marshal(ev), byte for byte.
func Record(ev Event) ([]byte, error) {
	_, rec, err := encode(ev, true)
	return rec, err
}

// EventLog is an append-only, totally ordered event log with cursor-based
// consumption. Producers Append; consumers either poll Since or block in
// WaitAfter. There are no per-subscriber buffers, so a slow consumer can
// never stall the epoch runner or lose events.
//
// The log holds each event as its wire form (encode), not as a struct,
// and it holds a tail, not a lifetime. Events are stored in fixed-size
// chunks (appends never copy old events). Once a chunk is a tail length
// (retain.Windows.EventTail) behind the head and all of it is persisted by a
// persister that can read back, it is dropped and base advances: the durable
// copy is the record. A cursor below base is served by reading the gap back
// from the persister, with no log lock held, and joining it to the in-memory
// tail, so every cursor sees the same gap-free stream from memory or disk.
// With no such persister, or a wedged one, nothing is dropped. What the
// persister has pruned too (WAL segments behind a snapshot) is gone: older
// cursors resume at the first retained seq.
type EventLog struct {
	// appendMu serializes the whole append path (seq assignment + encode +
	// persist + publish), so persists reach the WAL in exact seq order while
	// the persister's fsync runs *outside* mu — readers (Since/WaitAfter) are
	// never stalled behind a disk sync. Lock order: appendMu before mu.
	appendMu sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond
	base   int        // seq of the last event no longer held in memory
	head   int        // seq of the newest event
	chunks [][][]byte // held wire forms; every chunk but the last is full
	bytes  int        // total length of the held wire forms
	closed bool

	persister Persister
	reader    readBacker // persister, when it can read back
	persisted int        // highest seq durably forwarded to the persister
	perr      error      // first persist failure; persister is wedged once set
	rerr      error      // first read-back failure (that read resumed past the gap)
	readBack  uint64     // events served from the persister, not memory
}

// NewEventLog creates an empty log starting at seq 1.
func NewEventLog() *EventLog { return NewEventLogAt(0) }

// NewEventLogAt creates an empty log whose first appended event gets seq
// base+1. Used by restores whose recovered log starts past seq 1.
func NewEventLogAt(base int) *EventLog {
	l := &EventLog{base: base, head: base}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// SetPersister attaches the write-ahead hook. Events already in the log are
// considered persisted (a restore seeds the log from the WAL itself);
// subsequent appends are forwarded synchronously, in order.
func (l *EventLog) SetPersister(p Persister) {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persister = p
	l.reader, _ = p.(readBacker)
	l.persisted = l.head
	l.perr = nil
}

// Persisted returns the highest durably persisted seq and the wedging error,
// if any. With no persister attached it reports 0, nil.
func (l *EventLog) Persisted() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.persisted, l.perr
}

// durable reports whether a write-ahead persister is attached.
func (l *EventLog) durable() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.persister != nil
}

// Append assigns the next sequence number, encodes the event once (its
// payload only for a persister), forwards the record to the persister (if
// any), holds the wire form and wakes blocked consumers. It returns the
// assigned sequence number. appendMu serializes appends, so the WAL order is
// exactly the log order and write-ahead semantics hold (the event becomes
// visible only after the persist returns) — but the persist itself, fsync
// included, runs outside the reader lock, so -fsync always no longer stalls
// Since/WaitAfter consumers for the duration of the sync.
func (l *EventLog) Append(e Event) int {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()

	l.mu.Lock()
	e.Seq = l.head + 1
	if e.At.IsZero() {
		e.At = time.Now()
	}
	p := l.persister
	if l.perr != nil {
		p = nil // wedged: the durable prefix must stay a prefix
	}
	l.mu.Unlock()

	wire, rec, perr := encode(e, p != nil)
	if wire == nil {
		wire = wireOf(e)
	} else if perr == nil && p != nil {
		perr = p.PersistRecord(e.Seq, e.Kind, rec)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if p != nil {
		if perr != nil {
			l.perr = perr
		} else {
			l.persisted = e.Seq
		}
	}
	l.storeLocked(e.Seq, wire)
	l.cond.Broadcast()
	return e.Seq
}

// seed moves the log's head past a batch of recovered events without
// invoking the persister (they came from it) or holding them: older cursors
// read them back, so a boot encodes nothing. The batch must continue the log
// without a gap, and the log must hold nothing yet.
func (l *EventLog) seed(events []Event) error {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range events {
		if e.Seq != l.head+1 {
			return fmt.Errorf("engine: recovered events not contiguous: seq %d after %d", e.Seq, l.head)
		}
		l.base, l.head = e.Seq, e.Seq
		if l.persister != nil {
			l.persisted = e.Seq
		}
	}
	l.cond.Broadcast()
	return nil
}

// storeLocked holds wire as event seq, the newest, then drops every chunk
// that is a tail length behind it and readable from the persister. Caller
// holds l.mu.
func (l *EventLog) storeLocked(seq int, wire []byte) {
	w, n := retain.Sizes(), len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == w.EventChunk {
		l.chunks = append(l.chunks, make([][]byte, 0, w.EventChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], wire)
	l.head = seq
	l.bytes += len(wire)
	for l.reader != nil && l.perr == nil && len(l.chunks) > 1 {
		last := l.base + len(l.chunks[0]) // seq of the oldest chunk's last event
		if last > l.head-w.EventTail || last > l.persisted {
			break
		}
		for _, wire := range l.chunks[0] {
			l.bytes -= len(wire)
		}
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
		l.base = last
	}
}

// Since returns all events with Seq > after (non-blocking), as private
// copies without payloads: payloads are write-ahead only, so events read back
// from the persister lose theirs too, and memory and disk reads agree.
func (l *EventLog) Since(after int) []Event {
	cold, held, _ := l.read(after, false)
	return decoded(cold, held)
}

// WaitAfter blocks until at least one event with Seq > after exists or the
// log is closed. The second return is false once the log is closed; callers
// must still process the returned batch before exiting, or events written
// just before Close would be lost. The events are as Since returns them.
func (l *EventLog) WaitAfter(after int) ([]Event, bool) {
	cold, held, open := l.read(after, true)
	return decoded(cold, held), open
}

// SinceJSON returns Since(after) as json.NewEncoder(w).Encode writes it, byte
// for byte ("[]" for none): held events as they are held, only events read
// back from the persister are encoded.
func (l *EventLog) SinceJSON(after int) []byte {
	cold, held, _ := l.read(after, false)
	out := append(make([]byte, 0, 256*(len(cold)+len(held))+3), '[') // ~231 B an event
	for _, ev := range cold {
		out = append(append(out, wireOf(ev)...), ',')
	}
	for _, wire := range held {
		out = append(append(out, wire...), ',')
	}
	if len(out) > 1 {
		out = out[:len(out)-1] // the last comma
	}
	return append(out, ']', '\n')
}

// decoded joins a read's two runs into private, payload-free events.
func decoded(cold []Event, held [][]byte) []Event {
	for i := range cold {
		cold[i].Payload = nil
	}
	for _, wire := range held {
		var ev Event
		if err := json.Unmarshal(wire, &ev); err != nil {
			panic(err) // the log encoded it from an Event
		}
		cold = append(cold, ev)
	}
	return cold
}

// read serves the readers: the events past after, read back from the
// persister (cold), then held in memory. A cursor inside the tail is answered
// under l.mu alone (readHeld). A colder one first reads (after, base] back
// from the persister with no lock held — a cold /events?after=0 must not
// stall Append, and with it every epoch — then re-checks base, which may have
// advanced meanwhile, until the cursor reaches the tail: disk and memory join
// without a gap or a duplicate. What the persister does not return (a pruned
// prefix; the rest of a failed read, kept in rerr) is skipped. Only a read
// that has found nothing yet waits.
func (l *EventLog) read(after int, wait bool) (cold []Event, held [][]byte, open bool) {
	for {
		var r readBacker
		var base int
		if held, open, r, base = l.readHeld(after, wait && len(cold) == 0); r == nil {
			return cold, held, open
		}
		evs, err := r.ReadBack(after, base)
		cold, after = append(cold, evs...), base
		l.mu.Lock()
		l.readBack += uint64(len(evs))
		if l.rerr == nil {
			l.rerr = err
		}
		l.mu.Unlock()
	}
}

// readHeld is the locked half of read: it waits for an event past after if
// asked to, then either returns the held wire forms past after, or — the
// cursor is below base and there is a persister to ask — returns that
// persister and base for the caller to read back up to. A cursor at or past
// the head (a client's typo, a cursor that outlived an unsynced tail) holds
// nothing.
func (l *EventLog) readHeld(after int, wait bool) (held [][]byte, open bool, r readBacker, base int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for wait && l.head <= after && !l.closed {
		l.cond.Wait()
	}
	if after < l.base && l.reader != nil {
		return nil, false, l.reader, l.base
	}
	if after = max(after, l.base); after < l.head {
		held = make([][]byte, 0, l.head-after)
		chunk, off := retain.Sizes().EventChunk, after-l.base
		for _, c := range l.chunks[off/chunk:] {
			held = append(held, c[off%chunk:]...)
			off = 0
		}
	}
	return held, !l.closed, nil, 0
}

// WaitFor blocks until the head reaches seq or the log closes; false if closed.
func (l *EventLog) WaitFor(seq int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head < seq && !l.closed {
		l.cond.Wait()
	}
	return !l.closed
}

// LastSeq is the sequence number of the newest event — with no gaps, also
// the number of events ever appended, held in memory or not.
func (l *EventLog) LastSeq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Held reports how many events are in memory (the tail, plus up to a chunk,
// on a durable log) and their wire forms' size, how many reads have fetched
// from the persister instead, and the first such read that failed.
func (l *EventLog) Held() (held, size int, readBack uint64, rerr error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head - l.base, l.bytes, l.readBack, l.rerr
}

// Close wakes all blocked consumers; subsequent WaitAfter calls drain the
// remaining events and report the log closed.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}
