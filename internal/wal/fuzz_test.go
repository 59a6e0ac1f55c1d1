package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
)

// FuzzBookArchive throws damaged settlement-book archives at the archive's two
// readers — boot's prefix check (checkPrefix, behind checkBook) and the
// streaming reader (readBook, behind bookArchive.Scan) — under the marks of a
// known book's three checkpoints. Invariants: neither panics; a read that
// succeeds yields exactly the book up to the mark; and a prefix the check
// accepts reads back, so whichever mark boot falls back to, the book it
// serves is right. The seeds are the clean archive, a torn tail, bit flips in
// a payload and in a checksum, a file shorter than the newest mark, garbage
// past it, and two records swapped. CI runs this with a short -fuzztime
// budget.
func FuzzBookArchive(f *testing.F) {
	book := ledger.NewSettlementBook(nil)
	var want []ledger.Settlement
	marks := []ledger.BookMark{{}}
	dir := f.TempDir()
	for i, n := range []int{3, 4} {
		for j := 0; j < n; j++ {
			s := ledger.Settlement{TxID: "tx-" + string(rune('a'+len(want))), Epoch: uint64(i + 1), Buyer: "b1",
				Price: ledger.FromFloat(100), ArbiterCut: ledger.FromFloat(5),
				SellerCuts: map[string]ledger.Currency{"s1": ledger.FromFloat(60), "s2": ledger.FromFloat(35)}}
			if j == 2 {
				s.ExPost, s.SellerCuts = true, nil
			}
			want = append(want, s)
			book.Record(s)
		}
		cut := book.Cut()
		m, err := appendBook(dir, cut)
		if err != nil {
			f.Fatal(err)
		}
		cut.Archived(m)
		marks = append(marks, m)
	}
	clean, err := os.ReadFile(filepath.Join(dir, bookArchiveName))
	if err != nil {
		f.Fatal(err)
	}
	flip := func(off int) []byte {
		b := append([]byte{}, clean...)
		b[off] ^= 0x04
		return b
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                  // torn tail
	f.Add(flip(headerSize + 3))                  // bit flip in the first payload
	f.Add(flip(5))                               // bit flip in the first checksum
	f.Add(flip(len(clean) - 1))                  // bit flip in the newest checkpoint's last record
	f.Add(clean[:marks[1].Bytes+2])              // shorter than the newest mark
	f.Add(append(append([]byte{}, clean...), 1)) // garbage past the newest mark
	f.Add([]byte{})
	// The first two records swapped: every record checks out on its own, only
	// the prefix CRC tells the book is wrong.
	n := headerSize + int(binary.LittleEndian.Uint32(clean))
	f.Add(append(append(append([]byte{}, clean[n:2*n]...), clean[:n]...), clean[2*n:]...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, m := range marks {
			checked := checkPrefix(bytes.NewReader(raw), m)
			got := []ledger.Settlement{}
			err := readBook(bytes.NewReader(raw), m, func(s ledger.Settlement) error { got = append(got, s); return nil })
			if err == nil && !reflect.DeepEqual(got, want[:m.Count]) {
				t.Fatalf("mark %+v: the reader accepted a wrong book:\n%+v\nwant\n%+v", m, got, want[:m.Count])
			}
			if checked == nil && err != nil {
				t.Fatalf("mark %+v: the check accepted a prefix the reader rejects: %v", m, err)
			}
		}
	})
}

// FuzzSnapshot throws damaged snapshot files at the ticket-trailer decoder
// (splitSnapshot, behind readSnapshot). Invariants: it never panics; a file
// without the trailer's magic is JSON alone, returned whole; a trailer it
// accepts consists of records whose checksums all hold, and its tickets
// survive a re-encode; and any change to the trailer of a known snapshot that
// keeps the magic is refused. The seeds are the clean file, tears at every
// region boundary, bit flips in a ticket record, a checksum, the footer, the
// magic and the head, two records swapped, and the older JSON-only form. CI
// runs this with a short -fuzztime budget.
func FuzzSnapshot(f *testing.F) {
	snap := &engine.SnapshotState{TakenAtSeq: 42, Epoch: 7, Platform: &core.PlatformSnapshot{Design: "posted-baseline"},
		Tickets: []engine.Ticket{
			{ID: "sub-000001", Kind: engine.KindRegister, Status: engine.TicketDone, Participant: "b1", Epoch: 1},
			{ID: "sub-000002", Kind: engine.KindRequest, Status: engine.TicketApplied, Participant: "b2", Epoch: 2,
				RequestID: "req-0002", Priority: -1},
			{ID: "sub-000003", Kind: engine.KindRequest, Status: engine.TicketDone, Participant: "bü", Epoch: 2,
				RequestID: "req-0003", TxID: "tx-0004", Price: 123.45, Priority: 2, MatchedEpoch: 5},
			{ID: "sub-000004", Kind: engine.KindShare, Status: engine.TicketFailed, Participant: "s1", Epoch: 3,
				Err: "ledger: account \"s1\" already open"},
		}}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, snap, ledger.BookMark{}); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	head, _, _, err := splitSnapshot(clean)
	if err != nil {
		f.Fatal(err)
	}
	headLen := len(head)
	end := len(clean) - len(ticketsMagic) - footerSize
	rec := headerSize + int(binary.LittleEndian.Uint32(clean[headLen:])) // the first ticket record's size
	flip := func(off int) []byte {
		b := append([]byte{}, clean...)
		b[off] ^= 0x10
		return b
	}
	f.Add(clean)
	for _, n := range []int{headLen, headLen + 3, headLen + rec, end, end + 5, len(clean) - 1} {
		f.Add(clean[:n]) // torn
	}
	f.Add(flip(headLen + headerSize + 2)) // in the first ticket's payload
	f.Add(flip(headLen + 5))              // in its checksum
	f.Add(flip(end + headerSize + 1))     // in the footer's head length
	f.Add(flip(end + headerSize + 8))     // in the footer's ticket count
	f.Add(flip(len(clean) - 3))           // in the magic
	f.Add(flip(headLen / 2))              // in the head
	f.Add(append(append(append(append([]byte{}, clean[:headLen]...), clean[headLen+rec:headLen+2*rec]...),
		clean[headLen:headLen+rec]...), clean[headLen+2*rec:]...)) // the first two records swapped
	f.Add(append(append([]byte{}, head[:len(head)-1]...), `,"tickets":[{"id":"sub-000001"}]}`...)) // JSON only

	f.Fuzz(func(t *testing.T, raw []byte) {
		head, tickets, trailer, err := splitSnapshot(raw)
		if !trailer {
			if err != nil || !bytes.Equal(head, raw) || tickets != nil {
				t.Fatalf("a file without the magic is not passed through as JSON: %d-byte head, %d tickets, %v", len(head), len(tickets), err)
			}
			return
		}
		if err != nil {
			return
		}
		// Accepted: every record between the head and the magic checks out.
		region := raw[len(head) : len(raw)-len(ticketsMagic)]
		for off, i := 0, 0; off < len(region); i++ {
			_, next, _, err := nextRecord(region, off)
			if err != nil || i > len(tickets) {
				t.Fatalf("accepted a trailer whose record %d is bad (%v) or surplus", i, err)
			}
			off = next
		}
		var again bytes.Buffer
		if err := encodeSnapshot(&again, &engine.SnapshotState{Platform: snap.Platform, Tickets: tickets}, ledger.BookMark{}); err != nil {
			t.Fatal(err)
		}
		if _, back, _, err := splitSnapshot(again.Bytes()); err != nil || !reflect.DeepEqual(back, tickets) {
			t.Fatalf("accepted tickets do not survive a re-encode (%v):\n%+v\n%+v", err, back, tickets)
		}
		if len(raw) == len(clean) && !bytes.Equal(raw, clean) && bytes.Equal(raw[:headLen], clean[:headLen]) {
			t.Fatalf("accepted a changed trailer: %d tickets", len(tickets))
		}
	})
}

// FuzzWALDecode throws arbitrary bytes at the record decoder. Invariants:
// never panic, never read past the input, decode a contiguous seq run, and
// the accepted prefix must re-decode to the same events (decoding is
// deterministic and prefix-stable). It also reads n bytes of the input from
// at positionally, as the event log reads its window back (readRecords,
// behind Log.ReadRecords), expecting the records there to begin at seq: the
// read returns exactly the payloads that frame those bytes, which
// decodeRecords accepts there with those seqs, or fails with ErrTorn — never
// other bytes, and never a failure where every frame checks out and carries
// the seq expected of it. CI runs this with a short -fuzztime budget; the
// checked-in seeds cover the known corruption shapes.
func FuzzWALDecode(f *testing.F) {
	// Seeds: a clean stream, each corpus corruption shape, and raw JSON, each
	// read positionally whole; then reads of the clean stream's second record,
	// of nothing, off a record boundary, of part of a record, past its end and
	// expecting a wrong seq.
	var clean []byte
	for _, ev := range testEvents(3) {
		rec, err := frameEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, rec...)
	}
	whole := func(raw []byte) { f.Add(raw, uint16(0), uint16(len(raw)), uint8(0)) }
	whole(clean)
	whole(clean[:len(clean)-5])                               // torn payload
	whole(clean[:3])                                          // truncated length prefix
	whole([]byte{})                                           // empty
	whole([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})         // oversized length
	whole([]byte(`{"seq":1,"kind":"epoch-start","epoch":1}`)) // unframed JSON
	flipped := append([]byte{}, clean...)
	flipped[5] ^= 0xff // CRC byte
	whole(flipped)
	// A value-reported settlement record — the ex-post report shape with
	// its fan-out maps and audit fields.
	vr, err := frameEvent(engine.Event{Seq: 1, Epoch: 3, Kind: engine.EventValueReported,
		Ticket: "sub-000007", Participant: "b1", RequestID: "req-0003", TxID: "tx-0004",
		Price: 480, ArbiterCut: 48, SellerCuts: map[string]float64{"s1": 288, "s2": 144},
		Reported: 480, Audited: true, ExPost: true})
	if err != nil {
		f.Fatal(err)
	}
	whole(vr)
	whole(vr[:len(vr)-7]) // torn mid-payload value-reported record
	rec := len(clean) / 3 // the three records are the same length
	for _, r := range [][3]int{{rec, 2 * rec, 1}, {rec, rec, 1}, {rec + 1, 2 * rec, 1}, {rec, rec + 5, 1}, {0, len(clean) + 9, 0}, {0, len(clean), 1}} {
		f.Add(clean, uint16(r[0]), uint16(r[1]), uint8(r[2]))
	}

	f.Fuzz(func(t *testing.T, raw []byte, at, n uint16, seqFrom uint8) {
		evs, valid := decodeRecords(raw, 0, 0)
		if valid < 0 || valid > len(raw) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(raw))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				t.Fatalf("accepted events not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
			}
		}
		evs2, valid2 := decodeRecords(raw[:valid], 0, 0)
		if len(evs2) != len(evs) || valid2 != valid {
			t.Fatalf("prefix not stable: %d/%d then %d/%d", len(evs), valid, len(evs2), valid2)
		}
		// Re-encoding the accepted events must produce a decodable stream.
		var re []byte
		for _, ev := range evs {
			rec, err := frameEvent(ev)
			if err != nil {
				// Only possible for events whose JSON exceeds the record
				// cap; the input was at most the cap, so re-encoding can
				// exceed it only via JSON escaping growth. Skip those.
				return
			}
			re = append(re, rec...)
		}
		evs3, _ := decodeRecords(re, 0, 0)
		if len(evs3) != len(evs) {
			t.Fatalf("re-encoded stream lost events: %d vs %d", len(evs3), len(evs))
		}
		for i := range evs {
			a, _ := json.Marshal(evs[i])
			b, _ := json.Marshal(evs3[i])
			if string(a) != string(b) {
				t.Fatalf("event %d changed across re-encode:\n%s\n%s", i, a, b)
			}
		}
		checkPositionalRead(t, raw, int(at), int(n), int(seqFrom)+1)
	})
}

// checkPositionalRead is FuzzWALDecode's positional arm: readRecords of n
// bytes of raw from at (at is taken modulo the input; the range may run up to
// 64 bytes past it), expecting the records there to begin at seq.
func checkPositionalRead(t *testing.T, raw []byte, at, n, seq int) {
	at %= len(raw) + 1
	end := at + n%(len(raw)+65-at)
	var got [][]byte
	_, err := readRecords(bytes.NewReader(raw), nil, seq, int64(at), int64(end), func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	// The frames in [at, end), checked as readRecords checks them: whole,
	// checksummed, and the k-th beginning {"seq":seq+k,.
	var frames [][]byte
	whole := end <= len(raw)
	for off := at; whole && off < end; {
		p, next, _, ferr := nextRecord(raw[:end], off)
		s, ok := leadingSeq(p)
		if whole = ferr == nil && ok && s == seq+len(frames); whole {
			frames, off = append(frames, p), next
		}
	}
	if err != nil {
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("positional read of [%d, %d) failed without ErrTorn: %v", at, end, err)
		}
		if whole {
			t.Fatalf("positional read of [%d, %d) failed on %d records that check out: %v", at, end, len(frames), err)
		}
		return
	}
	if !whole || !slices.EqualFunc(got, frames, bytes.Equal) {
		t.Fatalf("positional read of [%d, %d) from seq %d returned %d records, the bytes frame %d (whole %v)", at, end, seq, len(got), len(frames), whole)
	}
	// decodeRecords accepts exactly those records there, as placeholders
	// when it need not decode them, with the same seqs.
	placeholders, valid := decodeRecords(raw[at:end], seq, math.MaxInt)
	if valid != end-at || len(placeholders) != len(got) {
		t.Fatalf("decodeRecords accepts %d of the %d bytes at %d as %d records, the read returned %d", valid, end-at, at, len(placeholders), len(got))
	}
}
