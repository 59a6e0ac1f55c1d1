package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// testEvents builds n minimal events with contiguous seqs, marking every
// fifth one as an epoch-end so SyncEpoch has sync points.
func testEvents(n int) []engine.Event {
	evs := make([]engine.Event, n)
	for i := range evs {
		kind := engine.EventRequestFiled
		if (i+1)%5 == 0 {
			kind = engine.EventEpochEnd
		}
		evs[i] = engine.Event{Seq: i + 1, Epoch: uint64(i/5 + 1), Kind: kind,
			Ticket: fmt.Sprintf("sub-%06d", i+1), Participant: "b1"}
	}
	return evs
}

func persistAll(t *testing.T, w *Log, evs []engine.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := w.Persist(ev); err != nil {
			t.Fatalf("persist seq %d: %v", ev.Seq, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncEpoch, SyncOff} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Options{Dir: dir, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			evs := testEvents(17)
			persistAll(t, w, evs)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			got, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(evs) {
				t.Fatalf("recovered %d events, want %d", len(got), len(evs))
			}
			for i, ev := range got {
				if ev.Seq != evs[i].Seq || ev.Kind != evs[i].Kind || ev.Ticket != evs[i].Ticket {
					t.Fatalf("event %d mismatch: got %+v want %+v", i, ev, evs[i])
				}
			}
		})
	}
}

func TestWALSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations over 40 records.
	w, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(40)
	persistAll(t, w, evs[:25])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentFiles(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments after rotation, got %d (%v)", len(segs), segs)
	}

	// Reopen mid-stream: the cursor must continue at seq 26.
	w, err = Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 25 {
		t.Fatalf("reopened cursor at %d, want 25", w.LastSeq())
	}
	persistAll(t, w, evs[25:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("recovered %d events, want 40", len(got))
	}
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	persistAll(t, w, testEvents(10))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append half a record to the segment.
	segs, _ := segmentFiles(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Load recovers the valid prefix without error.
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("recovered %d events, want 10", len(got))
	}

	// Open truncates the tail and appends cleanly after it.
	w, err = Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if w.LastSeq() != 10 {
		t.Fatalf("cursor at %d after torn tail, want 10", w.LastSeq())
	}
	if err := w.Persist(engine.Event{Seq: 11, Kind: engine.EventEpochEnd, Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[10].Seq != 11 {
		t.Fatalf("post-truncation append not recovered: %d events", len(got))
	}
}

func TestWALOutOfOrderAppendWedges(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Persist(engine.Event{Seq: 1, Kind: engine.EventEpochStart, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Persist(engine.Event{Seq: 3, Kind: engine.EventEpochEnd, Epoch: 1}); err == nil {
		t.Fatal("gap in seq must be rejected")
	}
	if err := w.Persist(engine.Event{Seq: 2, Kind: engine.EventEpochEnd, Epoch: 1}); err == nil {
		t.Fatal("wedged log must stay wedged")
	}
}

// TestUnencodableEventWedgesTheWAL: an engine event that cannot be encoded
// (a NaN price) wedges the durable log with its encoding error — the one
// Log.Persist returns for the same event, without writing it: nothing past
// the event before it is written, and the engine refuses to checkpoint.
func TestUnencodableEventWedgesTheWAL(t *testing.T) {
	dir := t.TempDir()
	_, e, w, _, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer e.Stop()
	e.Log().Append(engine.Event{Kind: engine.EventEpochStart, Epoch: 1})
	nan := engine.Event{Kind: engine.EventTxSettled, Epoch: 1, TxID: "tx-0001", Price: math.NaN()}
	e.Log().Append(nan)
	e.Log().Append(engine.Event{Kind: engine.EventEpochEnd, Epoch: 1})
	st := e.Stats()
	if st.LastPersisted != 1 || !strings.Contains(st.PersistErr, "encode event 2: json: unsupported value: NaN") {
		t.Fatalf("persisted %d, error %q; want 1 and event 2's encoding error", st.LastPersisted, st.PersistErr)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("a wedged log must refuse to checkpoint")
	}
	if evs, err := Load(dir); err != nil || len(evs) != 1 {
		t.Fatalf("WAL holds %d events (%v), want the 1 before the wedge", len(evs), err)
	}

	other, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	nan.Seq = 2
	if err := other.Persist(engine.Event{Seq: 1, Kind: engine.EventEpochStart}); err != nil {
		t.Fatal(err)
	}
	if err := other.Persist(nan); err == nil || err.Error() != st.PersistErr {
		t.Fatalf("Log.Persist's error %v, the engine's %q", err, st.PersistErr)
	}
	if n := other.LastSeq(); n != 1 {
		t.Fatalf("Log.Persist wrote an unencodable event: last seq %d", n)
	}
}

// TestLargeRecordFrameIsReleased: the frame buffer PersistRecord reuses is
// dropped after a record larger than maxFrameKept, and kept after small ones.
func TestLargeRecordFrameIsReleased(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	small := []byte(`{"seq":1,"kind":"epoch-start","epoch":1}`)
	if err := w.PersistRecord(1, engine.EventEpochStart, small); err != nil {
		t.Fatal(err)
	}
	if w.frame == nil {
		t.Fatal("the frame buffer of a small record should be kept for the next")
	}
	large := append([]byte(`{"seq":2,"kind":"epoch-start","note":"`), bytes.Repeat([]byte{'x'}, 2*maxFrameKept)...)
	if err := w.PersistRecord(2, engine.EventEpochStart, append(large, '"', '}')); err != nil {
		t.Fatal(err)
	}
	if w.frame != nil {
		t.Fatalf("the frame buffer of a %d-byte record is still held (cap %d)", len(large), cap(w.frame))
	}
	if err := w.PersistRecord(3, engine.EventEpochStart, small); err != nil {
		t.Fatal(err)
	}
	if cap(w.frame) > maxFrameKept {
		t.Fatalf("frame buffer cap %d after a small record", cap(w.frame))
	}
}

func TestSnapshotWriteLoadAndCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	if snap, err := LoadSnapshot(dir); err != nil || snap != nil {
		t.Fatalf("empty dir: want (nil, nil), got (%v, %v)", snap, err)
	}

	stub := &core.PlatformSnapshot{Design: "posted-baseline"}
	s1 := &engine.SnapshotState{TakenAtSeq: 10, Epoch: 2, Platform: stub}
	s2 := &engine.SnapshotState{TakenAtSeq: 25, Epoch: 5, Platform: stub}
	if _, err := WriteSnapshot(dir, s1); err != nil {
		t.Fatal(err)
	}
	p2, err := WriteSnapshot(dir, s2)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.TakenAtSeq != 25 {
		t.Fatalf("want newest snapshot (seq 25), got %+v", snap)
	}

	// Corrupt the newest: loader must fall back to the older one.
	if err := os.WriteFile(p2, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.TakenAtSeq != 10 {
		t.Fatalf("want fallback snapshot (seq 10), got %+v", snap)
	}
}
