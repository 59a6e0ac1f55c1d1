package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
)

// checkpointedRun drives sc through a market booted on a fresh directory, as
// the gateway runs one, and checkpoints after each epoch index in at
// (0-based). It returns the stopped live platform and engine, the closed
// directory and the book's archive mark after each checkpoint.
func checkpointedRun(t *testing.T, sc [][]op, at ...int) (*core.Platform, *engine.Engine, string, []ledger.BookMark) {
	t.Helper()
	dir := t.TempDir()
	p, e, w, _, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	var marks []ledger.BookMark
	for i, epoch := range sc {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		for _, a := range at {
			if a != i {
				continue
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
			marks = append(marks, e.Settlements().Cut().Mark)
		}
	}
	e.Stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return p, e, dir, marks
}

// TestCheckpointArchivesTheBook: a checkpoint appends only the settlements
// recorded since the previous one to the book archive, the archived entries
// leave the book's memory, and the snapshot carries the mark, not the list.
// Setting up a market creates no archive: the first checkpoint with a
// settlement does.
func TestCheckpointArchivesTheBook(t *testing.T) {
	sc := script()
	_, e, dir, marks := checkpointedRun(t, sc, 0, 2, 4)
	if marks[0].Count != 0 || marks[0].Bytes != 0 {
		t.Fatalf("a checkpoint before any sale archived %+v", marks[0])
	}
	if marks[1].Count == 0 || marks[2].Count <= marks[1].Count || marks[2].Bytes <= marks[1].Bytes {
		t.Fatalf("marks do not grow with the book: %+v", marks)
	}
	if st, err := os.Stat(filepath.Join(dir, bookArchiveName)); err != nil || st.Size() != marks[2].Bytes {
		t.Fatalf("archive %v (%v), want the newest mark's %d bytes", st, err, marks[2].Bytes)
	}
	cut := e.Settlements().Cut()
	if held := e.Settlements().HeldBytes(); cut.Count() != marks[2].Count || cut.Mark != marks[2] || held != 0 {
		t.Fatalf("book holds %d entries, %d bytes of them in memory; mark %+v, want %+v", cut.Count(), held, cut.Mark, marks[2])
	}
	if got := bookEntries(t, cut); len(got) != cut.Count() || got[0].TxID == "" {
		t.Fatalf("book streams %d entries back, want %d", len(got), cut.Count())
	}
	names, _ := snapshotFiles(dir)
	var onDisk struct{ Settlements ledger.BookMark }
	if err := json.Unmarshal(snapshotHead(t, filepath.Join(dir, names[0])), &onDisk); err != nil || onDisk.Settlements != marks[2] {
		t.Fatalf("snapshot carries %+v (%v), want the mark %+v", onDisk.Settlements, err, marks[2])
	}

	fresh := t.TempDir()
	_, e2, w2, _, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	driveAll(t, e2, sc[:1])
	e2.Stop()
	w2.Close()
	if _, err := os.Stat(filepath.Join(fresh, bookArchiveName)); !os.IsNotExist(err) {
		t.Fatalf("setting up a market created the book archive: %v", err)
	}
}

// TestBootDecodesNoArchivedSettlement: boot checks the archive prefix
// against the snapshot's mark without decoding a record. Every archived
// payload is replaced by bytes that are not a settlement — frames, per-record
// and whole-prefix checksums kept valid — and boot still succeeds, with the
// book's totals from the mark; only reading the book back finds the damage.
func TestBootDecodesNoArchivedSettlement(t *testing.T) {
	_, live, dir, marks := checkpointedRun(t, script(), 4)
	m := marks[0]
	path := filepath.Join(dir, bookArchiveName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		payload := raw[off+headerSize : off+headerSize+n]
		for i := range payload {
			payload[i] = '#'
		}
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.Checksum(payload, crcTable))
		off += headerSize + n
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	names, _ := snapshotFiles(dir)
	snapPath := filepath.Join(dir, names[0])
	snap, err := readSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m.CRC = crc32.Checksum(raw, crcTable)
	var patched bytes.Buffer
	if err := encodeSnapshot(&patched, snap, m); err != nil || os.WriteFile(snapPath, patched.Bytes(), 0o644) != nil {
		t.Fatalf("patch snapshot: %v", err)
	}

	_, e, w, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir})
	if err != nil {
		t.Fatalf("boot decoded the archive: %v", err)
	}
	defer w.Close()
	e.Stop()
	book, want := e.Settlements().Cut(), live.Settlements().Cut()
	if res.ArchivedSettlements != m.Count || book.Count() != want.Count() || !book.Conserved() ||
		book.Debits() != want.Debits() || book.Credits() != want.Credits() {
		t.Fatalf("boot %+v: book of %d (%s/%s), want %d (%s/%s)", res,
			book.Count(), book.Debits(), book.Credits(), want.Count(), want.Debits(), want.Credits())
	}
	if err := book.Each(func(ledger.Settlement) error { return nil }); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("reading the garbled archive back: %v, want an error naming %s", err, path)
	}
}

// TestBootFallsBackPastCorruption: a corrupt newest snapshot, or a book
// archive whose damage lies past the older snapshot's mark, falls back to the
// older snapshot and says so in BootResult; the archive is cut back to that
// mark and the WAL tail restores the book byte for byte. Damage inside every
// verifiable prefix refuses to boot, naming the archive.
func TestBootFallsBackPastCorruption(t *testing.T) {
	sc := script()
	basePlat, baseEng, _ := runUninterrupted(t, core.Options{Design: testDesign}, sc, SyncEpoch)
	want := fingerprint(t, basePlat, baseEng, true)
	for _, c := range []struct {
		name   string
		damage func(dir string, fallback ledger.BookMark) error
		refuse bool
	}{
		{"corrupt-snapshot", func(dir string, _ ledger.BookMark) error {
			names, _ := snapshotFiles(dir)
			return os.WriteFile(filepath.Join(dir, names[0]), []byte(`{"platform":`), 0o644)
		}, false},
		{"archive-past-fallback", func(dir string, fallback ledger.BookMark) error {
			return flipByte(filepath.Join(dir, bookArchiveName), fallback.Bytes+headerSize+2)
		}, false},
		{"archive-in-fallback", func(dir string, fallback ledger.BookMark) error {
			return flipByte(filepath.Join(dir, bookArchiveName), fallback.Bytes-3)
		}, true},
		{"archive-short", func(dir string, fallback ledger.BookMark) error {
			return os.Truncate(filepath.Join(dir, bookArchiveName), fallback.Bytes-1)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, dir, marks := checkpointedRun(t, sc, 2, 4)
			older := marks[0]
			names, _ := snapshotFiles(dir)
			if err := c.damage(dir, older); err != nil {
				t.Fatal(err)
			}

			p, e, w, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir})
			if c.refuse {
				if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, bookArchiveName)) {
					t.Fatalf("boot over a corrupt archive prefix: %v, want a refusal naming the archive", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if res.FromSnapshotSeq != snapshotSeq(names[1]) || len(res.SkippedSnapshots) != 1 ||
				!strings.HasPrefix(res.SkippedSnapshots[0], names[0]+": ") || res.ArchivedSettlements != older.Count {
				t.Fatalf("boot %+v, want the fallback %s with %s reported skipped", res, names[1], names[0])
			}
			if st, err := os.Stat(filepath.Join(dir, bookArchiveName)); err != nil || st.Size() != older.Bytes {
				t.Fatalf("archive not cut back to the fallback's mark %d: %v %v", older.Bytes, st, err)
			}
			e.Stop()
			if got := fingerprint(t, p, e, true); string(got) != string(want) {
				t.Fatalf("fallback boot diverged:\n--- baseline\n%s\n--- restarted\n%s", want, got)
			}
		})
	}
}

// TestBootDropsAWrongEarlyDecode is TestBootFallsBackPastCorruption's
// corrupt-snapshot case with the corruption landing after boot has started
// decoding the WAL tail on the newest snapshot's watermark: the early decode
// must be dropped, and the boot must report and restore exactly what the
// plain path does. With nothing corrupted, boot consumes the early decode.
func TestBootDropsAWrongEarlyDecode(t *testing.T) {
	sc := script()
	basePlat, baseEng, _ := runUninterrupted(t, core.Options{Design: testDesign}, sc, SyncEpoch)
	want := fingerprint(t, basePlat, baseEng, true)
	_, _, dir, _ := checkpointedRun(t, sc, 2, 4)
	corrupt := func(dir string) {
		names, _ := snapshotFiles(dir)
		if err := os.WriteFile(filepath.Join(dir, names[0]), []byte(`{"platform":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(what, dir string, early *segmentScan) BootResult {
		t.Helper()
		p, e, w, res, err := boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir}.withDefaults(), early)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer w.Close()
		e.Stop()
		if got := fingerprint(t, p, e, true); string(got) != string(want) {
			t.Fatalf("%s diverged:\n--- baseline\n%s\n--- restarted\n%s", what, want, got)
		}
		if res.TailDecode <= 0 {
			t.Fatalf("%s: no decoder time reported: %+v", what, res)
		}
		res.SnapshotLoad, res.PlatformRestore, res.TailReplay, res.TailDecode = 0, 0, 0, 0
		return res
	}

	intact := copyDir(t, dir)
	sc0 := earlyScan(intact)
	run("intact", intact, sc0)
	if !sc0.adopted {
		t.Fatal("boot on an intact directory dropped the early decode")
	}

	late := copyDir(t, dir)
	early := earlyScan(late)
	if len(early.names) == 0 {
		t.Fatal("the early decode has no segment to read")
	}
	for len(early.ahead) == 0 { // the reader has decoded a segment at least
		runtime.Gosched()
	}
	corrupt(late)
	corrupt(dir)
	plain := run("plain", dir, nil)
	got := run("early", late, early)
	if early.adopted {
		t.Fatal("boot consumed a decode made for a snapshot it skipped")
	}
	if plain.FromSnapshotSeq == 0 || len(plain.SkippedSnapshots) != 1 || !reflect.DeepEqual(got, plain) {
		t.Fatalf("boot after a wrong early decode: %+v\nplain path: %+v", got, plain)
	}
}

// copyDir copies the files of dir into a fresh temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(out, e.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func flipByte(path string, off int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[off] ^= 0x20
	return os.WriteFile(path, raw, 0o644)
}

// TestArchivedSnapshotKeepsOldReadersOut: a release from before the archive
// decodes "settlements" as a list, and one from before the ticket trailer
// decodes the whole file as JSON. On a snapshot with a mark and a trailer
// both decodes fail — the older one even on the JSON head alone — so either
// release passes the snapshot over and replays the WAL — or refuses, when the
// segments the snapshot covers are pruned — instead of loading the checkpoint
// with an empty book or ticket window.
func TestArchivedSnapshotKeepsOldReadersOut(t *testing.T) {
	_, _, dir, _ := checkpointedRun(t, script(), 4)
	names, _ := snapshotFiles(dir)
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Platform *core.PlatformSnapshot `json:"platform"`
		Settles  []ledger.Settlement    `json:"settlements,omitempty"`
	}
	for _, in := range [][]byte{raw, snapshotHead(t, path)} {
		if err := json.Unmarshal(in, &old); err == nil {
			t.Fatalf("a pre-archive reader decodes the snapshot (%d settlements)", len(old.Settles))
		}
	}
	var parent diskSnapshot
	if err := json.Unmarshal(raw, &parent); err == nil {
		t.Fatalf("a reader from before the ticket trailer decodes the snapshot (%d tickets)", len(parent.Tickets))
	}
}

// snapshotHead returns the JSON head of the snapshot file at path.
func snapshotHead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, _, trailer, err := splitSnapshot(raw)
	if err != nil || !trailer {
		t.Fatalf("%s: trailer %v, %v", path, trailer, err)
	}
	return head
}
