package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Snapshot files live beside the segments as snapshot-<seq>.json, where
// <seq> is the checkpoint's TakenAtSeq. They are written atomically
// (tmp + rename) so a crash mid-write never shadows an older good snapshot;
// Boot removes the tmp files such a crash leaves behind.

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
// once the file and its directory entry are durable.
func WriteSnapshot(dir string, snap *engine.SnapshotState) (string, error) {
	tmp, err := writeSnapshotTmp(dir, snap)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapshotName(snap.TakenAtSeq))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	// Make the rename itself durable — without a directory fsync the
	// snapshot can vanish on power loss even though its bytes were synced,
	// and a prune behind it would have dropped what it covers.
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// writeSnapshotTmp encodes snap into a fresh tmp file in dir and fsyncs it:
// everything WriteSnapshot does before the rename. The unique name keeps
// concurrent writers apart; a crash leaves the file for Boot to sweep.
func writeSnapshotTmp(dir string, snap *engine.SnapshotState) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, snapshotName(snap.TakenAtSeq)+tmpInfix+"*")
	if err != nil {
		return "", err
	}
	err = encodeSnapshot(f, snap)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// encodeSnapshot writes snap as the JSON object json.Marshal would, with its
// two long lists — the settlements, which grow with the market's lifetime, and
// the ticket window — last and streamed one entry at a time through a
// buffered writer, so encoding never holds a second copy of either.
func encodeSnapshot(w io.Writer, snap *engine.SnapshotState) error {
	rest := *snap
	rest.Tickets, rest.Settles = nil, nil
	head, err := json.Marshal(&rest)
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.Write(head[:len(head)-1]) // reopen the object: drop its closing brace
	enc := json.NewEncoder(bw)
	if err := encodeList(bw, enc, "tickets", snap.Tickets); err != nil {
		return err
	}
	if err := encodeList(bw, enc, "settlements", snap.Settles); err != nil {
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

// LoadSnapshot returns the newest parseable snapshot in dir, or (nil, nil)
// when none exists. A corrupt newest snapshot falls back to the one before
// it — the WAL replays the difference either way.
func LoadSnapshot(dir string) (*engine.SnapshotState, error) {
	names, err := snapshotFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var snap engine.SnapshotState
		if err := json.Unmarshal(raw, &snap); err != nil || snap.Platform == nil {
			continue // corrupt or half-written; try the previous one
		}
		return &snap, nil
	}
	return nil, nil
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
