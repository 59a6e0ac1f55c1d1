package engine

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

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
// the write-ahead hook. It reports where it put the record; only a persister
// that can read records back (recordStore) need say more than a zero Extent.
// A persister that returns an error, or an event that cannot be encoded,
// wedges: the log stops forwarding records (so the durable prefix stays a
// prefix) and records the error, while in-memory operation continues.
// internal/wal provides the standard implementation.
type Persister interface {
	PersistRecord(seq int, kind EventKind, rec []byte) (Extent, error)
}

// Extent is where a persister put one record: the Size bytes from At of the
// store that holds its seq (for internal/wal, the record's frame in its
// segment). A zero Size says nothing was reported.
type Extent struct {
	At   int64
	Size uint32
}

// recordStore is a Persister that can read what it persisted back, and that
// the log therefore leaves its events in. internal/wal's Log is one.
//
// ReadBack returns the events with after < Seq <= upto, in order, from the
// first one it still retains (older ones may be pruned behind a snapshot):
// cursors older than the log's window read there.
//
// ReadRecords reads the records of seq, seq+1, … that fill the bytes [at,
// end) of seq's store — consecutive extents PersistRecord reported — and hands
// each to fn, checked against its checksum and its seq; fn may modify the
// record, which is valid only for the call. It must not wait on an append in
// progress (an fsync), and it must keep working for every extent the log has
// not released, whatever happened to the store since: a segment rotated out,
// pruned or closed. An error — fn's or its own — ends the read.
//
// Release says the log's window holds no extent of a seq <= upto any more. A
// reader that viewed the window before may still ask for one: a failed read
// tells it the window moved on, and it reads those events back (ReadBack).
type recordStore interface {
	ReadBack(after, upto int) ([]Event, error)
	ReadRecords(seq int, at, end int64, fn func(rec []byte) error) error
	Release(upto int)
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
			rec = slices.Concat(wire[:len(wire)-1], payloadKey, p, []byte{'}'})
		}
	}
	if err != nil {
		return wire, nil, fmt.Errorf("engine: encode event %d: %w", ev.Seq, err)
	}
	return wire, rec, nil
}

// payloadKey is what encode splices in where a record's wire form ends.
var payloadKey = []byte(`,"payload":`)

// wireOf returns ev's wire form or, if ev cannot be encoded (a NaN amount), a
// stand-in that keeps its place in the log and says why it has no content.
func wireOf(ev Event) []byte {
	wire, _, err := encode(ev, false)
	if err != nil {
		wire, _, _ = encode(Event{Seq: ev.Seq, Epoch: ev.Epoch, Kind: ev.Kind, Err: err.Error()}, false)
	}
	return wire
}

// wireIn recovers the wire form from the front of a record read back, n bytes
// long, in place: encode made the record the wire form with the payload
// spliced in before its closing brace, so that brace goes back where the
// splice begins. It refuses a record that does not have that shape.
func wireIn(rec []byte, n int) ([]byte, error) {
	switch {
	case n < 2 || n > len(rec):
	case n == len(rec) && rec[n-1] == '}':
		return rec, nil
	case bytes.HasPrefix(rec[n-1:], payloadKey):
		rec[n-1] = '}'
		return rec[:n], nil
	}
	return nil, fmt.Errorf("engine: a %d-byte record does not begin with a %d-byte wire form", len(rec), n)
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
// The log holds a window of the newest events, not a lifetime, and on a
// durable engine it does not hold their bytes. Each held event is one 16-byte
// index entry (heldAt), kept in fixed-size chunks (appends never copy old
// entries). Over a recordStore the entry is the extent of the event's record
// in the store, and readers get the wire form by a positional read of it: the
// WAL is the one copy. With no persister, one that cannot read back, or a
// wedged one, the wire forms themselves go into a byte slab per chunk that
// the entries index, read through the same path. Once a chunk is a window
// length (retain.Windows.EventTail) behind the head and all of it is
// persisted in a recordStore, it is dropped and base advances. A cursor below
// base is served by reading the gap back from the store, with no log lock
// held, and joining it to the window, so every cursor sees the same gap-free
// stream. What the store has pruned (WAL segments behind a snapshot) is gone:
// older cursors resume at the first retained seq.
type EventLog struct {
	// appendMu serializes the whole append path (seq assignment + encode +
	// persist + publish), so persists reach the WAL in exact seq order while
	// the persister's fsync runs *outside* mu — readers (Since/WaitAfter) are
	// never stalled behind a disk sync. Lock order: appendMu before mu.
	appendMu sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond
	base   int          // seq of the last event no longer held
	head   int          // seq of the newest event
	chunks []eventChunk // every chunk but the last is full
	bytes  int          // index entries and slab bytes held
	closed bool

	persister Persister
	store     recordStore // persister, when it can read back
	persisted int         // highest seq durably forwarded to the persister
	perr      error       // first persist failure; persister is wedged once set
	rerr      error       // first read-back failure (those events were skipped)
	readBack  uint64      // events served by ReadBack, below the window
}

// heldAt locates one held event's wire form, wire bytes long. With size > 0
// it is the extent [at, at+size) of the event's record in the store, whose
// front is the wire form (wireIn); otherwise the wire form is at offset at in
// its chunk's slab.
type heldAt struct {
	at   int64
	size uint32
	wire uint32
}

// heldSize is what the log counts per held event, besides any slab bytes.
const heldSize = int(unsafe.Sizeof(heldAt{}))

// eventChunk is retain.Windows.EventChunk consecutive events' index entries
// and the slab holding the wire forms of those not left in the store. Both
// only grow (a full chunk's slab is trimmed to size once), so a reader may
// keep slices of them after the lock.
type eventChunk struct {
	at   []heldAt
	slab []byte
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
	l.store, _ = p.(recordStore)
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
// any), indexes the event and wakes blocked consumers. It returns the
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
	var ext Extent
	if wire == nil {
		wire = wireOf(e)
	} else if perr == nil && p != nil {
		ext, perr = p.PersistRecord(e.Seq, e.Kind, rec)
	}

	l.mu.Lock()
	if p != nil {
		if perr != nil {
			l.perr = perr
		} else {
			l.persisted = e.Seq
		}
	}
	if perr != nil || l.store == nil {
		ext = Extent{} // the wire form stays in memory
	}
	store, upto := l.store, l.storeLocked(e.Seq, wire, ext)
	l.cond.Broadcast()
	l.mu.Unlock()
	if upto > 0 {
		store.Release(upto)
	}
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

// storeLocked indexes event seq, the newest, at ext in the store or, with no
// extent, in the slab, then drops every chunk that is a window length behind
// it and persisted in the store. It returns the new base if it dropped one, for
// the store to release the extents up to it, and 0 otherwise. Caller holds
// l.mu.
func (l *EventLog) storeLocked(seq int, wire []byte, ext Extent) int {
	w, n := retain.Sizes(), len(l.chunks)
	if n == 0 || len(l.chunks[n-1].at) == w.EventChunk {
		if n > 0 {
			l.chunks[n-1].slab = slices.Clone(l.chunks[n-1].slab)
		}
		l.chunks = append(l.chunks, eventChunk{at: make([]heldAt, 0, w.EventChunk)})
		n++
	}
	c := &l.chunks[n-1]
	h := heldAt{at: ext.At, size: ext.Size, wire: uint32(len(wire))}
	if ext.Size == 0 {
		h.at = int64(len(c.slab))
		c.slab = append(c.slab, wire...)
		l.bytes += len(wire)
	}
	c.at = append(c.at, h)
	l.bytes += heldSize
	l.head = seq
	dropped := 0
	for l.store != nil && l.perr == nil && len(l.chunks) > 1 {
		last := l.base + len(l.chunks[0].at) // seq of the oldest chunk's last event
		if last > l.head-w.EventTail || last > l.persisted {
			break
		}
		l.bytes -= len(l.chunks[0].at)*heldSize + len(l.chunks[0].slab)
		l.chunks[0] = eventChunk{}
		l.chunks = l.chunks[1:]
		l.base, dropped = last, last
	}
	return dropped
}

// Since returns all events with Seq > after (non-blocking), as private
// copies without payloads: payloads are write-ahead only, so memory and disk
// reads agree.
func (l *EventLog) Since(after int) []Event {
	evs, _ := l.events(after, false)
	return evs
}

// WaitAfter blocks until at least one event with Seq > after exists or the
// log is closed. The second return is false once the log is closed; callers
// must still process the returned batch before exiting, or events written
// just before Close would be lost. The events are as Since returns them.
func (l *EventLog) WaitAfter(after int) ([]Event, bool) {
	return l.events(after, true)
}

// events is Since and WaitAfter: the events past after, decoded.
func (l *EventLog) events(after int, wait bool) ([]Event, bool) {
	var out []Event
	open := l.read(after, wait, func(cold []Event) {
		for i := range cold {
			cold[i].Payload = nil
		}
		out = append(out, cold...)
	}, func(wire []byte) error {
		var ev Event
		if err := json.Unmarshal(wire, &ev); err != nil {
			return fmt.Errorf("engine: held event does not decode: %w", err)
		}
		out = append(out, ev)
		return nil
	})
	return out, open
}

// SinceJSON returns Since(after) as json.NewEncoder(w).Encode writes it, byte
// for byte ("[]" for none): held events as their wire forms, only events read
// back below the window are encoded.
func (l *EventLog) SinceJSON(after int) []byte {
	l.mu.Lock()
	held := l.head - min(max(after, l.base), l.head) // sized for the window's part: a cursor may be any distance behind
	l.mu.Unlock()
	out := append(make([]byte, 0, 256*held+3), '[') // ~231 B an event
	l.read(after, false, func(cold []Event) {
		for _, ev := range cold {
			out = append(append(out, wireOf(ev)...), ',')
		}
	}, func(wire []byte) error {
		out = append(append(out, wire...), ',')
		return nil
	})
	if len(out) > 1 {
		out = out[:len(out)-1] // the last comma
	}
	return append(out, ']', '\n')
}

// read serves the readers: it hands cold the events past after that lie below
// the window, read back from the store, then held the wire form of each event
// past after in the window, in seq order. A cursor inside the window is served
// from one view of it taken under l.mu (view) and positional reads made with
// no lock held (serve). A colder one first reads (after, base] back with no
// lock held — a cold /events?after=0 must not stall Append, and with it every
// epoch — then re-checks base, which may have advanced meanwhile, until the
// cursor reaches the window: disk and window join without a gap or a
// duplicate. A reader the window moved past while it read goes on the same
// way, from the last event it served. What the store does not return (a
// pruned prefix; a failed read, kept in rerr) is skipped. Only a read that has
// found nothing yet waits.
func (l *EventLog) read(after int, wait bool, cold func([]Event), held func(wire []byte) error) (open bool) {
	for found := false; ; {
		v := l.view(after, wait && !found)
		if !v.cold {
			behind, err := l.serve(v, held)
			l.mu.Lock()
			l.rerr = cmp.Or(l.rerr, err)
			l.mu.Unlock()
			if behind < 0 {
				return v.open
			}
			found, after = found || behind > after, behind
			continue
		}
		evs, err := v.store.ReadBack(after, v.base)
		cold(evs)
		found, after = found || len(evs) > 0, v.base
		l.mu.Lock()
		l.readBack += uint64(len(evs))
		l.rerr = cmp.Or(l.rerr, err)
		l.mu.Unlock()
	}
}

// window is what a reader takes under l.mu: the store and base to read the
// events below the window back from (cold), or a view of the held events past
// its cursor — the chunks' index entries and slabs, from seq first on.
type window struct {
	store  recordStore
	cold   bool
	base   int
	first  int
	chunks []eventChunk
	open   bool
}

// view waits for an event past after if asked to, then returns the reader's
// window. A cursor at or past the head (a client's typo, a cursor that
// outlived an unsynced tail) views nothing.
func (l *EventLog) view(after int, wait bool) window {
	l.mu.Lock()
	defer l.mu.Unlock()
	for wait && l.head <= after && !l.closed {
		l.cond.Wait()
	}
	v := window{store: l.store, base: l.base, open: !l.closed}
	if after < l.base && l.store != nil {
		v.cold = true
		return v
	}
	if after = max(after, l.base); after < l.head {
		chunk, off := retain.Sizes().EventChunk, after-l.base
		v.first, v.chunks = after+1, slices.Clone(l.chunks[off/chunk:])
		v.chunks[0].at = v.chunks[0].at[off%chunk:]
	}
	return v
}

// serve hands yield the wire form of each event in the view v, in seq order:
// from its slab, or read back from the store, one positional read per run of
// records adjacent there (a run ends with its chunk). An event that fails to
// read, and the rest of its run, is skipped, never served, and serve returns
// the first such error. But if the window has moved past the event since v
// was taken, the store may have released it: then serve stops and returns the
// seq of the last event it served or skipped, for read to go on from as a
// colder cursor. Otherwise it returns -1.
func (l *EventLog) serve(v window, yield func(wire []byte) error) (behind int, first error) {
	seq, done := v.first, v.first-1
	for _, c := range v.chunks {
		for i := 0; i < len(c.at); {
			h, j := c.at[i], i+1
			var err error
			if h.size == 0 {
				err = yield(c.slab[h.at : h.at+int64(h.wire)])
			} else {
				end := h.at + int64(h.size)
				for ; j < len(c.at) && c.at[j].size > 0 && c.at[j].at == end; j++ {
					end += int64(c.at[j].size)
				}
				run := c.at[i:j]
				err = v.store.ReadRecords(seq+i, h.at, end, func(rec []byte) error {
					if len(run) == 0 {
						return fmt.Errorf("engine: store read more records than seqs %d..%d", seq+i, seq+j-1)
					}
					wire, err := wireIn(rec, int(run[0].wire))
					run = run[1:]
					if err == nil {
						err = yield(wire)
					}
					if err == nil {
						done++
					}
					return err
				})
				if err == nil && len(run) > 0 {
					err = fmt.Errorf("engine: store read %d records short of seq %d", len(run), seq+j-1)
				}
				if err != nil && l.behind(done+1) {
					return done, first
				}
			}
			first = cmp.Or(first, err)
			done, i = seq+j-1, j
		}
		seq += len(c.at)
	}
	return -1, first
}

// behind reports whether the window no longer holds seq.
func (l *EventLog) behind(seq int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq <= l.base
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

// Held reports how many events the window holds (the tail, plus up to a
// chunk, on a durable log) and the bytes it holds them in — index entries
// and slabs, 16 B an event left in the store — how many events ReadBack has
// served below the window, and the first read that failed.
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
