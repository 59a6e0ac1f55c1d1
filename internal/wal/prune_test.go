package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
)

// TestPruneAfterSnapshotReboots: with tiny segments, checkpoint mid-script,
// prune the covered segments, finish the run, reboot — recovery must start
// from the snapshot, replay only the surviving tail, and match the
// uninterrupted state byte for byte.
func TestPruneAfterSnapshotReboots(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})

	var watermark int
	for i, epoch := range script() {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		if i == 2 { // checkpoint + prune after epoch 3
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
			watermark = snap.TakenAtSeq
			before, _ := segmentFiles(dir)
			if len(before) < 2 {
				t.Fatalf("workload too small to rotate segments: %v", before)
			}
			n, err := w.PruneCovered(watermark)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("no covered segments pruned")
			}
			after, _ := segmentFiles(dir)
			if len(after) != len(before)-n {
				t.Fatalf("pruned %d but %d -> %d segments", n, len(before), len(after))
			}
			// The surviving prefix must still cover everything past the
			// watermark: the first remaining segment starts at or below it.
			if first := segmentFirstSeq(after[0]); first > watermark+1 {
				t.Fatalf("prune cut into uncovered records: first segment starts at %d, watermark %d", first, watermark)
			}
		}
	}
	e.Stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	baseStrong := fingerprint(t, p, e, true)

	// Reboot from snapshot + pruned log.
	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("boot over pruned log: %v", err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq != watermark {
		t.Fatalf("boot ignored the snapshot: %+v", res)
	}
	if res.Recovered == 0 || res.Recovered >= e.Log().LastSeq() {
		t.Fatalf("pruned boot should recover only the tail: %+v (log head %d)", res, e.Log().LastSeq())
	}
	e2.Stop()
	if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
		t.Fatalf("pruned reboot diverged:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
	}

	// Events below the pruned base are compacted; the served suffix is
	// contiguous up to the original head.
	evs := e2.Log().Since(0)
	if len(evs) == 0 {
		t.Fatal("no events served after pruned boot")
	}
	if evs[0].Seq == 1 {
		t.Fatal("pruned boot still serves the full history — nothing was compacted")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap in served events at %d -> %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if got, want := evs[len(evs)-1].Seq, e.Log().LastSeq(); got != want {
		t.Fatalf("served head %d, want %d", got, want)
	}
}

// TestPruneAfterSnapshotKeepsCorruptionFallback: the safe prune helper
// keeps the newest two snapshots and the segments the older one needs, so
// the newest checkpoint going corrupt still boots — the fallback
// LoadSnapshot documents. Snapshots behind the fallback are deleted.
func TestPruneAfterSnapshotKeepsCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})

	checkpoint := func() {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		if err := PruneAfterSnapshot(dir, w, true); err != nil {
			t.Fatal(err)
		}
	}
	for i, epoch := range script() {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		if i >= 1 { // checkpoint + prune after epochs 2..5
			checkpoint()
		}
	}
	e.Stop()
	w.Close()
	baseStrong := fingerprint(t, p, e, true)

	snaps, _ := snapshotFiles(dir)
	if len(snaps) != 2 {
		t.Fatalf("prune should keep exactly the newest two snapshots, have %v", snaps)
	}
	// Corrupt the newest snapshot: boot must fall back to the older one
	// and replay the difference from the retained segments.
	if err := os.WriteFile(filepath.Join(dir, snaps[0]), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("boot with corrupt newest snapshot: %v", err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq != snapshotSeq(snaps[1]) {
		t.Fatalf("boot used watermark %d, want fallback %d", res.FromSnapshotSeq, snapshotSeq(snaps[1]))
	}
	if res.Replayed == 0 {
		t.Fatal("fallback boot replayed nothing — the retained segments were not used")
	}
	e2.Stop()
	if got := fingerprint(t, p2, e2, true); string(got) != string(baseStrong) {
		t.Fatalf("fallback boot diverged:\n--- baseline\n%s\n--- restarted\n%s", baseStrong, got)
	}
}

// TestPruneKeepsActiveSegment: pruning at the log head must never remove
// the active append segment, and appends afterwards still land and recover.
func TestPruneKeepsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	driveAll(t, e, script())

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PruneCovered(snap.TakenAtSeq); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentFiles(dir)
	if len(segs) == 0 {
		t.Fatal("prune removed the active append segment")
	}

	// The log is still appendable after the prune.
	reg := mustTicket(e.SubmitRegister("b9", 700))
	e.TriggerEpoch()
	if tk, _ := e.Ticket(reg); tk.Status != engine.TicketDone {
		t.Fatalf("post-prune registration failed: %+v", tk)
	}
	e.Stop()
	w.Close()

	p2, e2, w2, _, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("boot after prune+append: %v", err)
	}
	defer func() { e2.Stop(); w2.Close() }()
	if !p2.Arbiter.Ledger.Exists("b9") {
		t.Fatal("post-prune registration lost on reboot")
	}
}

// TestBootDecodesOnlyUncoveredSegments: a snapshot beside the full WAL (no
// prune) makes boot decode only the segments past its watermark — the ones it
// does not wholly cover — and a corrupt covered segment, never read, no
// longer truncates anything. Both boots match the uninterrupted run.
func TestBootDecodesOnlyUncoveredSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: SyncEpoch, SegmentBytes: 512}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	var watermark int
	for i, epoch := range script() {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		if i == 2 {
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
			watermark = snap.TakenAtSeq
		}
	}
	e.Stop()
	w.Close()
	want, head := fingerprint(t, p, e, true), e.Log().LastSeq()

	segs, _ := segmentFiles(dir)
	first := 0 // the segment holding seq watermark+1 begins here
	for _, name := range segs {
		if s := segmentFirstSeq(name); s <= watermark+1 {
			first = s
		}
	}
	if first <= 1 {
		t.Fatalf("no segment wholly below the watermark %d: %v", watermark, segs)
	}
	boot := func(what string) {
		t.Helper()
		start := time.Now()
		p2, e2, w2, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, opts)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer w2.Close()
		if res.SnapshotLoad <= 0 || res.PlatformRestore <= 0 || res.TailReplay <= 0 ||
			res.SnapshotLoad+res.PlatformRestore+res.TailReplay > elapsed {
			t.Fatalf("%s: phases load %v + restore %v + replay %v, want each set and their sum at most the boot's %v",
				what, res.SnapshotLoad, res.PlatformRestore, res.TailReplay, elapsed)
		}
		if res.FromSnapshotSeq != watermark || res.Recovered != head-first+1 || res.Replayed != head-watermark ||
			res.ArchivedSettlements == 0 || len(res.SkippedSnapshots) != 0 {
			t.Fatalf("%s: %+v, want snapshot seq %d, %d events read and %d replayed, a book archive and no snapshot skipped",
				what, res, watermark, head-first+1, head-watermark)
		}
		e2.Stop()
		if got := fingerprint(t, p2, e2, true); string(got) != string(want) {
			t.Fatalf("%s diverged:\n--- baseline\n%s\n--- restarted\n%s", what, want, got)
		}
	}
	boot("boot from snapshot + full WAL")

	covered := filepath.Join(dir, segs[0])
	raw, err := os.ReadFile(covered)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(covered, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	boot("boot past a corrupt covered segment")
	if after, _ := segmentFiles(dir); len(after) != len(segs) {
		t.Fatalf("segments %v became %v", segs, after)
	}
	if st, err := os.Stat(covered); err != nil || st.Size() != int64(len(raw)) {
		t.Fatalf("corrupt covered segment was touched: %v %v", st, err)
	}
}

// TestBootRemovesStaleSnapshotTmp: a crash between a snapshot's tmp write and
// its rename leaves the tmp file behind; the next boot deletes it and leaves
// the real snapshots alone.
func TestBootRemovesStaleSnapshotTmp(t *testing.T) {
	_, e, dir := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncEpoch)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	tmp, _, err := writeSnapshotTmp(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, w2, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e2.Stop(); w2.Close() }()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp %s survived boot: %v", tmp, err)
	}
	if res.FromSnapshotSeq != snap.TakenAtSeq {
		t.Fatalf("boot ignored the real snapshot: %+v", res)
	}
}

// TestStreamedSnapshotIsTheMarshalledObject: the streamed snapshot encoding
// is a JSON head — the object json.Marshal gives for the checkpoint without
// its tickets, plus the book's archive mark under "settlements" — followed by
// the ticket trailer, which decodes to exactly the checkpoint's tickets, in
// order. The head plus the tickets under "tickets" is the older, JSON-only
// form, and both load to the same checkpoint.
func TestStreamedSnapshotIsTheMarshalledObject(t *testing.T) {
	_, e, dir := runUninterrupted(t, core.Options{Design: "expost-audited"}, expostScript(), SyncEpoch)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tickets) == 0 || snap.Book.Count() == 0 {
		t.Fatalf("snapshot streams nothing: %d tickets, %d settlements", len(snap.Tickets), snap.Book.Count())
	}
	mark, err := appendBook(dir, snap.Book)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := encodeSnapshot(&streamed, snap, mark); err != nil {
		t.Fatal(err)
	}
	head, tickets, trailer, err := splitSnapshot(streamed.Bytes())
	if err != nil || !trailer {
		t.Fatalf("streamed snapshot has no ticket trailer (%v)", err)
	}
	if !reflect.DeepEqual(tickets, snap.Tickets) {
		t.Fatalf("ticket trailer decodes to\n%+v\nwant\n%+v", tickets, snap.Tickets)
	}
	headless := *snap
	headless.Tickets = nil
	marshalled := func(s *engine.SnapshotState) []byte {
		raw, err := json.Marshal(struct {
			*engine.SnapshotState
			Settlements ledger.BookMark `json:"settlements"`
		}{s, mark})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var got, want any
	if err := json.Unmarshal(head, &got); err != nil {
		t.Fatalf("snapshot head is not JSON: %v", err)
	}
	if err := json.Unmarshal(marshalled(&headless), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot head differs from json.Marshal:\n%s\n%s", head, marshalled(&headless))
	}
	if mark.Count != snap.Book.Count() || !mark.Conserved {
		t.Fatalf("mark %+v does not cover the book's %d settlements", mark, snap.Book.Count())
	}

	// Both forms load to the same checkpoint.
	loaded := map[string]*engine.SnapshotState{}
	for form, raw := range map[string][]byte{"trailer": streamed.Bytes(), "json": marshalled(snap)} {
		path := filepath.Join(t.TempDir(), snapshotName(snap.TakenAtSeq))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if loaded[form], err = readSnapshot(path); err != nil {
			t.Fatalf("%s form: %v", form, err)
		}
		loaded[form].TakenAt = snap.TakenAt
	}
	if !reflect.DeepEqual(loaded["trailer"], loaded["json"]) || !reflect.DeepEqual(loaded["json"].Tickets, snap.Tickets) {
		t.Fatalf("the two forms load differently:\n%+v\n%+v", loaded["trailer"], loaded["json"])
	}
}
