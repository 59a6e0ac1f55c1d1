package wal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
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
	p, e, w, _, err := Boot(core.Options{Design: testDesign}, engine.Config{Shards: 4}, Options{Dir: dir, Policy: SyncEpoch})
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
	if cut.Count() != marks[2].Count || len(cut.Unarchived()) != 0 {
		t.Fatalf("book holds %d entries, %d unarchived; mark %+v", cut.Count(), len(cut.Unarchived()), marks[2])
	}
	if got := bookEntries(t, cut); len(got) != cut.Count() || got[0].TxID == "" {
		t.Fatalf("book streams %d entries back, want %d", len(got), cut.Count())
	}
	names, _ := snapshotFiles(dir)
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk struct{ Settlements ledger.BookMark }
	if err := json.Unmarshal(raw, &onDisk); err != nil || onDisk.Settlements != marks[2] {
		t.Fatalf("snapshot carries %+v (%v), want the mark %+v", onDisk.Settlements, err, marks[2])
	}

	fresh := t.TempDir()
	_, e2, w2, _, err := Boot(core.Options{Design: testDesign}, engine.Config{Shards: 4}, Options{Dir: fresh})
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
	var fields map[string]json.RawMessage
	if raw, err := os.ReadFile(snapPath); err != nil || json.Unmarshal(raw, &fields) != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	m.CRC = crc32.Checksum(raw, crcTable)
	fields["settlements"], _ = json.Marshal(m)
	if patched, err := json.Marshal(fields); err != nil || os.WriteFile(snapPath, patched, 0o644) != nil {
		t.Fatalf("patch snapshot: %v", err)
	}

	_, e, w, res, err := Boot(core.Options{Design: testDesign}, engine.Config{Shards: 4}, Options{Dir: dir})
	if err != nil {
		t.Fatalf("boot decoded the archive: %v", err)
	}
	defer w.Close()
	e.Stop()
	book, want := e.Settlements(), live.Settlements()
	if res.ArchivedSettlements != m.Count || book.Count() != want.Count() || !book.Conserved() ||
		book.Debits() != want.Debits() || book.Credits() != want.Credits() {
		t.Fatalf("boot %+v: book of %d (%s/%s), want %d (%s/%s)", res,
			book.Count(), book.Debits(), book.Credits(), want.Count(), want.Debits(), want.Credits())
	}
	if err := book.Cut().Each(func(ledger.Settlement) error { return nil }); err == nil || !strings.Contains(err.Error(), path) {
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

			p, e, w, res, err := Boot(core.Options{Design: testDesign}, engine.Config{Shards: 4}, Options{Dir: dir})
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

func flipByte(path string, off int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[off] ^= 0x20
	return os.WriteFile(path, raw, 0o644)
}

// TestArchivedSnapshotKeepsOldReadersOut: a release from before the archive
// decodes "settlements" as a list. On a snapshot carrying a mark there its
// decode fails, so it passes the snapshot over and replays the WAL — or
// refuses, when the segments the snapshot covers are pruned — instead of
// loading the checkpoint with an empty book.
func TestArchivedSnapshotKeepsOldReadersOut(t *testing.T) {
	_, _, dir, _ := checkpointedRun(t, script(), 4)
	names, _ := snapshotFiles(dir)
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Platform *core.PlatformSnapshot `json:"platform"`
		Settles  []ledger.Settlement    `json:"settlements,omitempty"`
	}
	if err := json.Unmarshal(raw, &old); err == nil {
		t.Fatalf("a pre-archive reader decodes the snapshot (%d settlements)", len(old.Settles))
	}
}
