package engine

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/retain"
)

// heldTicket is a Ticket while it is queued or applied, in 96 B: under its
// submission seq, so without an ID (ticketID derives it), with its kind and
// status as indexes into ticketKinds and ticketStatuses. Once terminal it
// never changes again, and the ticket window packs it into a record of its
// own (appendTicketRecord) and decodes it back into this form on demand.
type heldTicket struct {
	kind, status                      uint8
	priority                          int32
	epoch, matchedEpoch               uint64
	price                             float64
	participant, requestID, txID, err string
}

// Held ticket statuses, indexes into ticketStatuses; the last two are
// terminal. TicketRetired is never held.
const (
	heldQueued uint8 = iota
	heldApplied
	heldDone
	heldFailed
)

var (
	ticketStatuses = [...]TicketStatus{TicketQueued, TicketApplied, TicketDone, TicketFailed}
	ticketKinds    = [...]SubmissionKind{KindRegister, KindShare, KindRequest, KindReport}
)

func (t heldTicket) terminal() bool { return t.status >= heldDone }

// ticket is the held ticket of submission seq in its public form.
func (t heldTicket) ticket(seq uint64) Ticket {
	return Ticket{ID: ticketID(seq), Kind: ticketKinds[t.kind], Status: ticketStatuses[t.status],
		Participant: t.participant, Epoch: t.epoch, RequestID: t.requestID, TxID: t.txID, Price: t.price,
		Priority: int(t.priority), MatchedEpoch: t.matchedEpoch, Err: t.err}
}

// holdTicket is ticket's inverse. It refuses a ticket whose ID ticketID did
// not write, whose kind or status is none of the constants (TicketRetired is
// never held) or whose priority is past int32.
func holdTicket(t Ticket) (uint64, *heldTicket, error) {
	seq := ticketSeq(t.ID)
	kind, status := slices.Index(ticketKinds[:], t.Kind), slices.Index(ticketStatuses[:], t.Status)
	if seq == 0 || kind < 0 || status < 0 || t.Priority != int(int32(t.Priority)) {
		return 0, nil, fmt.Errorf("engine: cannot hold ticket %q of kind %q, status %q, priority %d", t.ID, t.Kind, t.Status, t.Priority)
	}
	return seq, &heldTicket{kind: uint8(kind), status: uint8(status), priority: int32(t.Priority),
		epoch: t.Epoch, matchedEpoch: t.MatchedEpoch, price: t.Price, participant: t.Participant,
		requestID: t.RequestID, txID: t.TxID, err: t.Err}, nil
}

// ticketWindow holds the terminal tickets, packed, in the order they turned
// terminal, which is the order they retire in: one record each in a
// retain.Ring, found by seq through an open-addressing index of ring
// positions. Neither holds a pointer. A request or transaction ID in the form
// the arbiter formats from its counter ("req-0042", "tx-0043") is held as the
// counter; any other ID, and error text, go in the side table, by seq.
type ticketWindow struct {
	ring retain.Ring
	// slots is the index: a power-of-two table probed linearly from a seq's
	// hash, each slot 0 (empty) or 1 + the ticket's ring position counted
	// from slotBase. It is never more than three quarters full.
	slots    []uint32
	slotBase uint64
	shift    uint8 // 64 - log2(len(slots))
	side     map[uint64]ticketSide
	scratch  []byte
}

// slotSpan is how far past slotBase an index slot can count a ring position;
// a push beyond it rebuilds the index from the oldest record's position. A
// variable so that a test can cross it.
var slotSpan uint64 = math.MaxUint32

// ticketSide is what a packed ticket record holds outside the ring.
type ticketSide struct{ requestID, txID, err string }

// How a packed record holds a request or transaction ID.
const (
	idNone    = iota // empty
	idCounter        // the arbiter's counter, in the record
	idSide           // verbatim, in the side table
)

// Flag bits of a packed record, after its kind (bits 0-1).
const (
	recFailed  = 1 << 2 // status heldFailed, else heldDone
	recReqForm = 3      // shift of the request ID's form, 2 bits
	recTxForm  = 5      // shift of the transaction ID's form, 2 bits
	recErr     = 1 << 7 // error text in the side table
)

// appendTicketRecord appends the packed form of seq's terminal ticket t to
// dst, and returns the side-table entry it needs (zero: none):
//
//	seq           uvarint
//	flags         1 byte: kind, failed, ID forms, error (the rec* constants)
//	participant   uvarint length, then the bytes
//	epoch         uvarint
//	matchedEpoch  varint of its difference from epoch, wrapping
//	price         uvarint of its IEEE 754 bits byte-reversed (as gob does)
//	priority      varint
//	request ID    uvarint counter, if held as one
//	tx ID         uvarint counter, if held as one
func appendTicketRecord(dst []byte, seq uint64, t *heldTicket) (_ []byte, side ticketSide) {
	req, reqForm := packID(t.requestID, "req-")
	tx, txForm := packID(t.txID, "tx-")
	flags := t.kind | reqForm<<recReqForm | txForm<<recTxForm
	if t.status == heldFailed {
		flags |= recFailed
	}
	if reqForm == idSide {
		side.requestID = t.requestID
	}
	if txForm == idSide {
		side.txID = t.txID
	}
	if t.err != "" {
		flags |= recErr
		side.err = t.err
	}
	dst = binary.AppendUvarint(dst, seq)
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(t.participant)))
	dst = append(dst, t.participant...)
	dst = binary.AppendUvarint(dst, t.epoch)
	dst = binary.AppendVarint(dst, int64(t.matchedEpoch-t.epoch))
	dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(t.price)))
	dst = binary.AppendVarint(dst, int64(t.priority))
	if reqForm == idCounter {
		dst = binary.AppendUvarint(dst, req)
	}
	if txForm == idCounter {
		dst = binary.AppendUvarint(dst, tx)
	}
	return dst, side
}

// decodeTicketRecord is appendTicketRecord's inverse, given the side-table
// entry of the record's seq. Records come from appendTicketRecord alone, so
// it does not check them.
func decodeTicketRecord(rec []byte, side ticketSide) (uint64, heldTicket) {
	uv := func() uint64 {
		v, n := binary.Uvarint(rec)
		rec = rec[n:]
		return v
	}
	sv := func() int64 {
		v, n := binary.Varint(rec)
		rec = rec[n:]
		return v
	}
	seq := uv()
	flags := rec[0]
	rec = rec[1:]
	n := uv()
	t := heldTicket{kind: flags & 3, status: heldDone, participant: string(rec[:n])}
	rec = rec[n:]
	if flags&recFailed != 0 {
		t.status = heldFailed
	}
	t.epoch = uv()
	t.matchedEpoch = t.epoch + uint64(sv())
	t.price = math.Float64frombits(bits.ReverseBytes64(uv()))
	t.priority = int32(sv())
	t.requestID = unpackID(flags>>recReqForm&3, "req-", uv, side.requestID)
	t.txID = unpackID(flags>>recTxForm&3, "tx-", uv, side.txID)
	if flags&recErr != 0 {
		t.err = side.err
	}
	return seq, t
}

// recordSeq is the seq a packed ticket record starts with.
func recordSeq(rec []byte) uint64 {
	seq, _ := binary.Uvarint(rec)
	return seq
}

// packID reports how a packed record holds id: as the counter n when id is
// exactly prefix and n as the arbiter writes it ("%s%04d").
func packID(id, prefix string) (n uint64, form uint8) {
	if id == "" {
		return 0, idNone
	}
	digits, ok := strings.CutPrefix(id, prefix)
	n, err := strconv.ParseUint(digits, 10, 64)
	var buf [32]byte
	if ok && err == nil && string(appendID(buf[:0], prefix, n)) == id {
		return n, idCounter
	}
	return 0, idSide
}

func unpackID(form uint8, prefix string, counter func() uint64, side string) string {
	switch form {
	case idCounter:
		return string(appendID(nil, prefix, counter()))
	case idSide:
		return side
	}
	return ""
}

// appendID appends prefix and n in at least four digits, zero-padded.
func appendID(dst []byte, prefix string, n uint64) []byte {
	dst = append(dst, prefix...)
	for p := uint64(1000); p > 1 && n < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, n, 10)
}

// push packs seq's terminal ticket t at the back of the window.
func (w *ticketWindow) push(seq uint64, t *heldTicket) {
	rec, side := appendTicketRecord(w.scratch[:0], seq, t)
	w.scratch = rec
	if side != (ticketSide{}) {
		if w.side == nil {
			w.side = map[uint64]ticketSide{}
		}
		w.side[seq] = side
	}
	switch pos := w.ring.Push(rec); {
	case w.ring.Len()*4 > len(w.slots)*3:
		w.reindex(max(16, 2*len(w.slots)))
	case pos-w.slotBase >= slotSpan:
		w.reindex(len(w.slots))
	default:
		w.place(seq, pos)
	}
}

// pop retires the oldest ticket.
func (w *ticketWindow) pop() {
	rec := w.ring.At(w.ring.Front())
	seq := recordSeq(rec)
	delete(w.side, seq)
	w.remove(w.find(seq))
	w.ring.Pop()
}

// get decodes the terminal ticket of seq, if the window holds it.
func (w *ticketWindow) get(seq uint64) (heldTicket, bool) {
	i := w.find(seq)
	if i < 0 {
		return heldTicket{}, false
	}
	_, t := decodeTicketRecord(w.ring.At(w.slotBase+uint64(w.slots[i]-1)), w.side[seq])
	return t, true
}

// has reports whether the window holds seq's ticket.
func (w *ticketWindow) has(seq uint64) bool { return w.find(seq) >= 0 }

// len returns how many tickets the window holds.
func (w *ticketWindow) len() int { return w.ring.Len() }

// all yields the held tickets in the order they turned terminal.
func (w *ticketWindow) all(yield func(seq uint64, t heldTicket) bool) {
	w.ring.All(func(_ uint64, rec []byte) bool {
		seq := recordSeq(rec)
		_, t := decodeTicketRecord(rec, w.side[seq])
		return yield(seq, t)
	})
}

func (w *ticketWindow) home(seq uint64) int { return int(seq * 0x9E3779B97F4A7C15 >> w.shift) }

// seqAt is the seq of the record slot value v points at.
func (w *ticketWindow) seqAt(v uint32) uint64 { return recordSeq(w.ring.At(w.slotBase + uint64(v-1))) }

// find returns the slot holding seq, or -1.
func (w *ticketWindow) find(seq uint64) int {
	if len(w.slots) == 0 {
		return -1
	}
	mask := len(w.slots) - 1
	for i := w.home(seq); w.slots[i] != 0; i = (i + 1) & mask {
		if w.seqAt(w.slots[i]) == seq {
			return i
		}
	}
	return -1
}

// place indexes seq's record at ring position pos.
func (w *ticketWindow) place(seq, pos uint64) {
	mask := len(w.slots) - 1
	i := w.home(seq)
	for w.slots[i] != 0 {
		i = (i + 1) & mask
	}
	w.slots[i] = uint32(pos-w.slotBase) + 1
}

// remove empties slot i, shifting back the entries after it that probed past
// it, so no lookup needs a tombstone.
func (w *ticketWindow) remove(i int) {
	mask := len(w.slots) - 1
	for j := (i + 1) & mask; w.slots[j] != 0; j = (j + 1) & mask {
		if k := w.home(w.seqAt(w.slots[j])); (j-k)&mask >= (j-i)&mask {
			w.slots[i] = w.slots[j]
			i = j
		}
	}
	w.slots[i] = 0
}

// reindex rebuilds the index in n slots (a power of two), counting positions
// from the oldest record's.
func (w *ticketWindow) reindex(n int) {
	w.slots = make([]uint32, n)
	w.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	w.slotBase = w.ring.Front()
	w.ring.All(func(pos uint64, rec []byte) bool {
		w.place(recordSeq(rec), pos)
		return true
	})
}

// setTicket updates the queued or applied ticket of submission seq. One that
// turns terminal moves into the ticket window, which then retires its oldest
// tickets beyond retain.Windows.Tickets. A terminal ticket never changes
// again: setTicket leaves it as it is.
func (e *Engine) setTicket(seq uint64, f func(*heldTicket)) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	t, ok := e.tickets[seq]
	if !ok {
		return
	}
	f(t)
	if t.terminal() {
		delete(e.tickets, seq)
		e.done.push(seq, t)
		e.retireLocked()
	}
}

// retireLocked trims the ticket window. Caller holds tmu. Once every
// retain.Windows.Tickets retirements it rebuilds the map of queued and applied
// tickets: Go's map keeps the slots its deletes empty, and every ticket passes
// through it.
func (e *Engine) retireLocked() {
	w := retain.Sizes().Tickets
	for e.done.len() > w {
		e.done.pop()
		if e.retired++; e.retired%uint64(w) == 0 {
			e.tickets = maps.Clone(e.tickets)
		}
	}
}

// heldTicketLocked returns the held ticket of submission seq, queued, applied
// or terminal. Caller holds tmu.
func (e *Engine) heldTicketLocked(seq uint64) (heldTicket, bool) {
	if t, ok := e.tickets[seq]; ok {
		return *t, true
	}
	return e.done.get(seq)
}

// ticketParticipant reads the participant recorded at enqueue time.
func (e *Engine) ticketParticipant(seq uint64) string {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	t, _ := e.heldTicketLocked(seq)
	return t.participant
}
