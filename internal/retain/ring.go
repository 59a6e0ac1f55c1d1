package retain

import "encoding/binary"

// Ring is a window's records packed into one byte slice, oldest first, with
// no pointer for the garbage collector to trace: each record is a uvarint
// length, then its bytes. Push appends a record at the back and Pop drops the
// one at the front. A record's position — how many bytes were pushed before
// it — stays its own while it is held, so an index can address it with At.
// Once the dead front reaches an eighth of what the ring holds, a Push that
// would outgrow the slice slides the held records down instead; otherwise the
// slice grows to a quarter over what it holds. So a ring costs its records'
// bytes plus at most about a quarter more.
type Ring struct {
	buf  []byte // the held records are buf[head:]
	head int
	base uint64 // the position of buf[0]
	n    int
}

// Push appends a copy of rec and returns its position.
func (r *Ring) Push(rec []byte) uint64 {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if need := len(r.buf) + h + len(rec); need > cap(r.buf) {
		held := need - r.head
		if r.head < held/8 {
			grown := make([]byte, len(r.buf)-r.head, held+held/4)
			copy(grown, r.buf[r.head:])
			r.buf = grown
		} else {
			r.buf = r.buf[:copy(r.buf, r.buf[r.head:])]
		}
		r.base += uint64(r.head)
		r.head = 0
	}
	pos := r.base + uint64(len(r.buf))
	r.buf = append(append(r.buf, hdr[:h]...), rec...)
	r.n++
	return pos
}

// Pop drops the oldest record and returns it; the bytes stay valid until the
// next Push. It returns nil when the ring is empty.
func (r *Ring) Pop() []byte {
	if r.n == 0 {
		return nil
	}
	rec, next := r.record(r.head)
	r.head = next
	if r.n--; r.n == 0 {
		r.base += uint64(len(r.buf))
		r.buf, r.head = r.buf[:0], 0
	}
	return rec
}

// At returns the record at pos, which must be the position of a held record.
// The bytes stay valid until the next Push.
func (r *Ring) At(pos uint64) []byte {
	rec, _ := r.record(int(pos - r.base))
	return rec
}

// Front returns the position of the oldest record, or of the next one pushed
// when the ring is empty.
func (r *Ring) Front() uint64 { return r.base + uint64(r.head) }

// Len returns how many records the ring holds.
func (r *Ring) Len() int { return r.n }

// All yields every held record with its position, oldest first. The ring
// must not change while it runs.
func (r *Ring) All(yield func(pos uint64, rec []byte) bool) {
	for off := r.head; off < len(r.buf); {
		rec, next := r.record(off)
		if !yield(r.base+uint64(off), rec) {
			return
		}
		off = next
	}
}

// record decodes the record at buf offset off and returns it with the offset
// of the next.
func (r *Ring) record(off int) ([]byte, int) {
	n, h := binary.Uvarint(r.buf[off:])
	start := off + h
	return r.buf[start : start+int(n) : start+int(n)], start + int(n)
}
