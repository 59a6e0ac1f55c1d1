package wal

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// frameEvent frames ev as the engine's event log persists it: the record
// engine.Record encodes, in the WAL's framing.
func frameEvent(ev engine.Event) ([]byte, error) {
	rec, err := engine.Record(ev)
	if err != nil {
		return nil, err
	}
	return appendRecord(nil, rec), nil
}

// encodeN frames n sequential events into one byte stream.
func encodeN(t *testing.T, n int) []byte {
	t.Helper()
	var buf []byte
	for _, ev := range testEvents(n) {
		rec, err := frameEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, rec...)
	}
	return buf
}

// TestDecodeAllCorpus is the corruption corpus the issue asks for: torn
// writes, bit-flipped CRCs, truncated length prefixes, empty and oversized
// records. Every case must decode without panicking and recover exactly the
// longest valid prefix.
func TestDecodeAllCorpus(t *testing.T) {
	valid := encodeN(t, 4)
	firstRec := func() []byte { // re-encode to get one record's framing
		rec, _ := frameEvent(testEvents(1)[0])
		return rec
	}()

	cases := []struct {
		name    string
		raw     []byte
		wantEvs int
		wantOfs int // -1 = don't check exact offset
	}{
		{"empty input", nil, 0, 0},
		{"clean stream", valid, 4, len(valid)},
		{"torn header", append(append([]byte{}, valid...), 0x10, 0x00, 0x00), 4, len(valid)},
		{"torn payload", append(append([]byte{}, valid...), firstRec[:len(firstRec)-3]...), 4, len(valid)},
		{"garbage stream", []byte("not a wal at all, definitely json-free"), 0, 0},
		{"truncated length prefix", valid[:2], 0, 0},
		{"empty record stream", func() []byte {
			// A zero-length payload: valid frame, but invalid JSON ("").
			var hdr [headerSize]byte
			binary.LittleEndian.PutUint32(hdr[4:8], 0x00000000)
			return appendRecord(nil, nil)[:headerSize]
		}(), 0, 0},
		{"oversized length prefix", func() []byte {
			var hdr [headerSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], maxRecordSize+1)
			return append(hdr[:], valid...)
		}(), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs, valid := decodeRecords(tc.raw, 0, 0)
			if len(evs) != tc.wantEvs {
				t.Fatalf("decoded %d events, want %d", len(evs), tc.wantEvs)
			}
			if tc.wantOfs >= 0 && valid != tc.wantOfs {
				t.Fatalf("valid prefix %d bytes, want %d", valid, tc.wantOfs)
			}
			if valid > len(tc.raw) {
				t.Fatalf("valid prefix %d exceeds input %d", valid, len(tc.raw))
			}
		})
	}
}

// TestDecodeAllBitFlips flips every byte of a two-record stream, one at a
// time, and asserts decoding never panics, never over-reads, and never
// accepts a record whose checksum no longer matches its payload.
func TestDecodeAllBitFlips(t *testing.T) {
	clean := encodeN(t, 2)
	var cleanEvs []engine.Event
	cleanEvs, _ = decodeRecords(clean, 0, 0)
	if len(cleanEvs) != 2 {
		t.Fatalf("sanity: clean stream decodes %d events", len(cleanEvs))
	}
	for i := range clean {
		raw := append([]byte{}, clean...)
		raw[i] ^= 0x41
		evs, valid := decodeRecords(raw, 0, 0)
		if valid > len(raw) {
			t.Fatalf("flip at %d: valid prefix %d exceeds input", i, valid)
		}
		if len(evs) > 2 {
			t.Fatalf("flip at %d: decoded %d events from a 2-record stream", i, len(evs))
		}
		// A flip inside record k must not lose records before k.
		rec0End := len(clean) / 2
		if i >= rec0End && len(evs) < 1 {
			t.Fatalf("flip at %d (second record) lost the first record", i)
		}
		// Re-decode of the accepted prefix must be stable.
		evs2, valid2 := decodeRecords(raw[:valid], 0, 0)
		if len(evs2) != len(evs) || valid2 != valid {
			t.Fatalf("flip at %d: prefix re-decode unstable (%d/%d vs %d/%d)",
				i, len(evs2), valid2, len(evs), valid)
		}
	}
}

// TestDecodeAllSeqGap: a decoded record whose seq breaks contiguity ends the
// valid prefix (the log invariant is "no gaps").
func TestDecodeAllSeqGap(t *testing.T) {
	evs := testEvents(3)
	evs[2].Seq = 7 // gap
	var buf []byte
	for _, ev := range evs {
		rec, err := frameEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, rec...)
	}
	got, _ := decodeRecords(buf, 1, 0)
	if len(got) != 2 {
		t.Fatalf("want 2 events before the gap, got %d", len(got))
	}
}

// TestEncodeOversizedEvent: an event whose record exceeds the record limit
// is refused and wedges the log, not written as garbage. (The record is
// handed over as bytes: encoding a 64 MiB event would leave a buffer that
// size in encoding/json's pool, inflating later heap measurements.)
func TestEncodeOversizedEvent(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.PersistRecord(1, engine.EventEpochStart, make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("oversized record must fail to persist")
	}
	if err := w.Persist(engine.Event{Seq: 1, Kind: engine.EventEpochStart}); err == nil {
		t.Fatal("the refusal must wedge the log")
	}
	if evs, err := Load(dir); err != nil || len(evs) != 0 {
		t.Fatalf("oversized record left %d records (%v)", len(evs), err)
	}
}

// sanity: the JSON wire form round-trips payloads.
func TestEventJSONRoundTrip(t *testing.T) {
	ev := testEvents(1)[0]
	ev.SellerCuts = map[string]float64{"s1": 12.5, "s2": 7.5}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back engine.Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seq != ev.Seq || back.SellerCuts["s1"] != 12.5 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

// TestDecodeRecordsLeavesCoveredUndecoded: the records a checkpoint covers
// come back as seq-only placeholders, with the same valid prefix and the same
// contiguity check as a full decode; the rest decode exactly as a full decode
// decodes them.
func TestDecodeRecordsLeavesCoveredUndecoded(t *testing.T) {
	raw := encodeN(t, 8)
	full, fullValid := decodeRecords(raw, 0, 0)
	for covered := 0; covered <= 9; covered++ {
		got, valid := decodeRecords(raw, 0, covered)
		if valid != fullValid || len(got) != len(full) {
			t.Fatalf("covered %d: %d events, valid %d; want %d, %d", covered, len(got), valid, len(full), fullValid)
		}
		for i, ev := range got {
			want := full[i]
			if ev.Seq <= covered {
				want = engine.Event{Seq: ev.Seq}
			}
			if !reflect.DeepEqual(ev, want) {
				t.Fatalf("covered %d: event %d = %+v, want %+v", covered, i, ev, want)
			}
		}
	}
	if got, _ := decodeRecords(raw, 2, 5); len(got) != 0 {
		t.Fatalf("a placeholder out of sequence was accepted: %+v", got)
	}
}
