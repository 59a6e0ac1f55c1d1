package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/engine"
)

// headerSize is the fixed record prefix: 4-byte length + 4-byte CRC.
const headerSize = 8

// maxRecordSize bounds a single record's payload. A length prefix larger
// than this is treated as corruption, not as an allocation request.
const maxRecordSize = 64 << 20

// crcTable is the Castagnoli polynomial, the standard WAL checksum (it has
// hardware support on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks the end of the valid prefix: a truncated, bit-flipped or
// otherwise unparseable record. Readers recover everything before it.
var ErrTorn = errors.New("wal: torn or corrupt record")

// appendRecord encodes one payload as a framed record onto dst.
func appendRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextRecord decodes the record starting at buf[off]. It returns the payload
// and the offset past the record. Any defect — short header, oversized or
// truncated length, CRC mismatch — returns an error wrapping ErrTorn; a
// clean end of buffer returns (nil, off, nil) with done=true.
func nextRecord(buf []byte, off int) (payload []byte, next int, done bool, err error) {
	if off == len(buf) {
		return nil, off, true, nil
	}
	if len(buf)-off < headerSize {
		return nil, off, false, fmt.Errorf("%w: %d-byte header fragment", ErrTorn, len(buf)-off)
	}
	n := binary.LittleEndian.Uint32(buf[off : off+4])
	sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
	if n > maxRecordSize {
		return nil, off, false, fmt.Errorf("%w: length prefix %d exceeds limit", ErrTorn, n)
	}
	start := off + headerSize
	if len(buf)-start < int(n) {
		return nil, off, false, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrTorn, len(buf)-start, n)
	}
	payload = buf[start : start+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, off, false, fmt.Errorf("%w: crc mismatch", ErrTorn)
	}
	return payload, start + int(n), false, nil
}

// decodeRecords decodes every valid record from raw and returns the events
// plus the byte offset of the valid prefix. It never panics and never fails:
// any corruption — torn write, bit-flipped CRC, truncated length prefix,
// bogus JSON, out-of-order seq — ends the prefix, and everything before it
// is returned. wantNext is the first expected seq (0 accepts any start).
//
// Records with seq <= covered — a checkpoint holds their effects — are left
// undecoded: each comes back as a placeholder carrying only its seq, read off
// the front of the payload, so framing, checksums and seq contiguity are
// checked exactly as for the rest.
func decodeRecords(raw []byte, wantNext, covered int) (events []engine.Event, validBytes int) {
	events = make([]engine.Event, 0, countFrames(raw))
	off := 0
	for {
		payload, next, done, err := nextRecord(raw, off)
		if done || err != nil {
			return events, off
		}
		var ev engine.Event
		if seq, ok := leadingSeq(payload); ok && seq <= covered {
			ev.Seq = seq
		} else if err := json.Unmarshal(payload, &ev); err != nil {
			return events, off
		}
		if wantNext != 0 && ev.Seq != wantNext {
			return events, off
		}
		events = append(events, ev)
		wantNext = ev.Seq + 1
		off = next
	}
}

// countFrames counts the records that raw's length prefixes chain through,
// up to the first empty or overrunning one, without checking a checksum: a
// bound on how many events decodeRecords can return, so it sizes its slice
// once. (An empty payload is never an event; stopping there keeps a
// zero-filled tail from sizing a slice by its length.)
func countFrames(raw []byte) int {
	n := 0
	for off := 0; len(raw)-off >= headerSize; n++ {
		size := binary.LittleEndian.Uint32(raw[off:])
		if size == 0 || size > maxRecordSize || len(raw)-off-headerSize < int(size) {
			break
		}
		off += headerSize + int(size)
	}
	return n
}

// seqPrefix is how every event record begins: json.Marshal writes
// engine.Event's fields in declaration order, and Seq is the first.
var seqPrefix = []byte(`{"seq":`)

// leadingSeq reads the seq off the front of an event record's payload
// without decoding the rest; ok is false for any other shape.
func leadingSeq(payload []byte) (seq int, ok bool) {
	digits, ok := bytes.CutPrefix(payload, seqPrefix)
	if !ok {
		return 0, false
	}
	for i, c := range digits {
		switch {
		case c == ',' && i > 0:
			return seq, true
		case c < '0' || c > '9' || i >= 18:
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return 0, false
}
