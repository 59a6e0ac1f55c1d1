package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/ledger"
)

// Snapshot files live beside the segments as snapshot-<seq>.json, where
// <seq> is the checkpoint's TakenAtSeq. They are written atomically
// (tmp + rename) so a crash mid-write never shadows an older good snapshot;
// Boot removes the tmp files such a crash leaves behind. A snapshot's
// "settlements" key holds the ledger.BookMark of the book archive prefix it
// covers (book.go); snapshots from before the archive list every settlement
// there instead, and Boot imports them. The object in place of the list is
// also what keeps binaries from before the archive out: their decoder fails
// on it, skips the snapshot and replays the WAL instead — refusing to boot
// if the segments the snapshot covers were pruned — rather than restore an
// empty book.

func snapshotName(seq int) string { return fmt.Sprintf("snapshot-%010d.json", seq) }

// snapshotSeq parses the watermark a snapshot file name encodes; 0 when the
// name is malformed.
func snapshotSeq(name string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".json")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// snapshotFiles lists snapshot file names in dir, newest (highest seq)
// first. A missing directory yields an empty list.
func snapshotFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// tmpInfix marks a snapshot still being written: snapshot-<seq>.json.tmp-<rand>.
const tmpInfix = ".tmp-"

// WriteSnapshot persists an engine checkpoint into dir and returns its path
// once it is durable. In order: the settlements the book recorded since its
// archived mark are appended to the book archive and fsynced; the snapshot,
// carrying the extended mark in place of the book, is written to a tmp file
// and fsynced, renamed into place and the directory fsynced; only then do the
// archived entries leave the book's memory (snap.Book.Archived).
func WriteSnapshot(dir string, snap *engine.SnapshotState) (string, error) {
	path, mark, err := writeSnapshot(dir, snap)
	if err != nil {
		return "", err
	}
	snap.Book.Archived(mark)
	return path, nil
}

// writeSnapshot is WriteSnapshot up to the directory fsync: everything but
// telling the book.
func writeSnapshot(dir string, snap *engine.SnapshotState) (string, ledger.BookMark, error) {
	tmp, mark, err := writeSnapshotTmp(dir, snap)
	if err != nil {
		return "", mark, err
	}
	path := filepath.Join(dir, snapshotName(snap.TakenAtSeq))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", mark, err
	}
	// Make the rename itself durable — without a directory fsync the
	// snapshot can vanish on power loss even though its bytes were synced,
	// and a prune behind it would have dropped what it covers. The same fsync
	// makes a freshly created book archive's entry durable.
	if err := syncDir(dir); err != nil {
		return "", mark, err
	}
	return path, mark, nil
}

// writeSnapshotTmp archives the book's unarchived entries, then encodes snap
// with the archive's new mark into a fresh tmp file in dir and fsyncs it:
// everything WriteSnapshot does before the rename. The unique name keeps
// concurrent writers apart; a crash leaves the file for Boot to sweep.
func writeSnapshotTmp(dir string, snap *engine.SnapshotState) (string, ledger.BookMark, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", ledger.BookMark{}, err
	}
	mark, err := appendBook(dir, snap.Book)
	if err != nil {
		return "", mark, err
	}
	f, err := os.CreateTemp(dir, snapshotName(snap.TakenAtSeq)+tmpInfix+"*")
	if err != nil {
		return "", mark, err
	}
	err = encodeSnapshot(f, snap, mark)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", mark, err
	}
	return f.Name(), mark, nil
}

// encodeSnapshot writes snap as the JSON object json.Marshal would, plus the
// book's archive mark under "settlements", with the ticket window last and
// streamed one entry at a time through a buffered writer, so encoding never
// holds a second copy of it.
func encodeSnapshot(w io.Writer, snap *engine.SnapshotState, mark ledger.BookMark) error {
	book, err := json.Marshal(mark)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	d := diskSnapshot{SnapshotState: *snap, Settlements: book}
	d.Tickets = nil
	head, err := json.Marshal(&d)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.Write(head[:len(head)-1]) // reopen the object: drop its closing brace
	if err := encodeList(bw, json.NewEncoder(bw), "tickets", snap.Tickets); err != nil {
		return err
	}
	bw.WriteByte('}')
	return bw.Flush()
}

// encodeList appends `,"key":[...]` to an open JSON object, one element at a
// time; like omitempty, it writes nothing for an empty list.
func encodeList[T any](bw *bufio.Writer, enc *json.Encoder, key string, list []T) error {
	if len(list) == 0 {
		return nil
	}
	bw.WriteString(`,"` + key + `":[`)
	for i := range list {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(&list[i]); err != nil {
			return fmt.Errorf("wal: encode snapshot %s: %w", key, err)
		}
	}
	return bw.WriteByte(']')
}

// diskSnapshot is a snapshot file's JSON: the engine checkpoint plus its book
// under "settlements" — the archive mark, or in a snapshot from before the
// archive every settlement, listed.
type diskSnapshot struct {
	engine.SnapshotState
	Settlements json.RawMessage `json:"settlements"`
}

// readSnapshot decodes one snapshot file. Its Book is the cut of the archive
// prefix the mark names; a snapshot that lists its settlements gets an
// in-memory cut of them, marked as archiving nothing.
func readSnapshot(path string) (*engine.SnapshotState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d diskSnapshot
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	if d.Platform == nil {
		return nil, errors.New("no platform checkpoint")
	}
	switch {
	case len(d.Settlements) == 0: // a pre-archive snapshot of an empty book
	case d.Settlements[0] == '[':
		var listed []ledger.Settlement
		if err := json.Unmarshal(d.Settlements, &listed); err != nil {
			return nil, err
		}
		book := ledger.NewSettlementBook(nil)
		for _, s := range listed {
			book.Record(s)
		}
		d.Book = book.Cut()
	default:
		var m ledger.BookMark
		if err := json.Unmarshal(d.Settlements, &m); err != nil {
			return nil, err
		}
		d.Book = ledger.ArchivedCut(m)
	}
	return &d.SnapshotState, nil
}

// removeSnapshotTmps deletes the tmp files of snapshot writes a crash cut
// short before their rename. Boot calls it, when no write can be in flight.
func removeSnapshotTmps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") && strings.Contains(name, ".json"+tmpInfix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: remove stale snapshot tmp %s: %w", name, err)
			}
		}
	}
	return nil
}

// LoadSnapshot returns the newest usable snapshot in dir, or (nil, nil) when
// none exists; see loadSnapshot.
func LoadSnapshot(dir string) (*engine.SnapshotState, error) {
	snap, _, err := loadSnapshot(dir)
	return snap, err
}

// loadSnapshot returns the newest snapshot in dir that parses and whose book
// archive prefix matches its mark (checked, not decoded), plus a note for
// every newer one it passed over. A corrupt newest snapshot falls back to the
// one before it — the WAL replays the difference either way. If every
// snapshot that parses has a corrupt archive prefix, it refuses: without the
// archive the book is not recoverable from the snapshot, and restoring
// without it would be silently wrong. With no snapshot at all it returns
// (nil, notes, nil).
func loadSnapshot(dir string) (*engine.SnapshotState, []string, error) {
	names, err := snapshotFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	var skipped []string
	var bookErr error
	for _, name := range names {
		snap, err := readSnapshot(filepath.Join(dir, name))
		if err == nil {
			if err = checkBook(dir, snap.Book.Mark); err != nil && bookErr == nil {
				bookErr = err
			}
		}
		if err == nil {
			return snap, skipped, nil
		}
		skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
	}
	return nil, skipped, bookErr
}

// PruneAfterSnapshot bounds WAL-directory growth after a successful
// checkpoint without giving up LoadSnapshot's corruption fallback: snapshot
// files older than the *second*-newest are deleted, so the directory never
// holds more than two checkpoints, and with segments set the WAL segments are
// pruned up to that fallback's watermark — so the newest snapshot going
// corrupt still leaves a fallback checkpoint plus every segment it needs to
// replay forward. With fewer than two snapshots nothing is removed (the first
// checkpoint cycle keeps the full log as its own fallback).
func PruneAfterSnapshot(dir string, w *Log, segments bool) error {
	names, err := snapshotFiles(dir)
	if err != nil || len(names) < 2 {
		return err
	}
	if segments {
		if _, err := w.PruneCovered(snapshotSeq(names[1])); err != nil {
			return err
		}
	}
	removed := false
	for _, name := range names[2:] {
		// A concurrent prune may already have removed it; idempotent.
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("wal: prune snapshot %s: %w", name, err)
		}
		removed = true
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}
