package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// Boot removes the tmp files such a crash leaves behind. A snapshot is a JSON
// head followed by a binary ticket trailer:
//
//	head     the checkpoint as json.Marshal writes it, without "tickets"; its
//	         "settlements" key holds the ledger.BookMark of the book archive
//	         prefix it covers (book.go)
//	tickets  the ticket window, one framed record per ticket in window order
//	         (the segment record format; payload: appendTicket)
//	footer   one framed record of 12 bytes — the head's length (uint64) and
//	         the ticket count (uint32), little-endian — then ticketsMagic
//
// Older snapshots are JSON alone, the ticket window under "tickets"; they
// still load. The two forms tell apart by the last bytes: ticketsMagic holds
// a NUL byte, which JSON text cannot, so no JSON-only snapshot ends in it.
// Snapshots from before the archive list every settlement under
// "settlements"; Boot imports them.
//
// Each change of form keeps the previous release out instead of letting it
// load the snapshot wrong: its decoder fails — on the object in place of the
// settlement list, or on the trailer after the head (a JSON text must end
// where its value does) — so it skips the snapshot and replays the WAL
// instead, refusing to boot if the segments the snapshot covers were pruned,
// rather than restore an empty book or ticket window.

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

// ticketsMagic ends every snapshot with a ticket trailer. Its NUL byte is what
// no JSON text holds; the version names the trailer's layout (appendTicket).
const ticketsMagic = "\x00tickets/1"

// footerSize is the framed record in front of ticketsMagic: the head's length
// and the ticket count.
const footerSize = headerSize + 12

// encodeSnapshot writes snap in the snapshot file form: the JSON head — snap
// as json.Marshal writes it, the book's archive mark under "settlements", no
// "tickets" — then the ticket trailer and the footer, streamed one record at
// a time through a buffered writer, so encoding never holds a second copy of
// the ticket window.
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
	bw.Write(head)
	var payload, rec []byte
	for i := range snap.Tickets {
		payload = appendTicket(payload[:0], &snap.Tickets[i])
		rec = appendRecord(rec[:0], payload)
		bw.Write(rec)
	}
	var foot [footerSize - headerSize]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(len(head)))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(snap.Tickets)))
	bw.Write(appendRecord(rec[:0], foot[:]))
	bw.WriteString(ticketsMagic)
	return bw.Flush()
}

// splitSnapshot separates a snapshot file into its JSON head and its ticket
// trailer, decoded. trailer is false for a snapshot that is JSON alone (head
// is then all of raw). A trailer that does not check out — a footer or
// ticket record torn, bit-flipped or inconsistent with the rest — is an
// error, never a shorter window.
func splitSnapshot(raw []byte) (head []byte, tickets []engine.Ticket, trailer bool, err error) {
	body, ok := bytes.CutSuffix(raw, []byte(ticketsMagic))
	if !ok {
		return raw, nil, false, nil
	}
	end := len(body) - footerSize
	if end < 0 {
		return nil, nil, true, fmt.Errorf("%w: %d bytes before the ticket trailer's magic", ErrTorn, len(body))
	}
	foot, _, _, err := nextRecord(body[end:], 0)
	if err == nil && len(foot) != footerSize-headerSize {
		err = fmt.Errorf("%w: %d-byte footer", ErrTorn, len(foot))
	}
	if err != nil {
		return nil, nil, true, fmt.Errorf("snapshot footer: %w", err)
	}
	headLen, count := binary.LittleEndian.Uint64(foot), binary.LittleEndian.Uint32(foot[8:])
	if headLen > uint64(end) {
		return nil, nil, true, fmt.Errorf("%w: footer puts the head's end at %d, past the trailer's end %d", ErrTorn, headLen, end)
	}
	tickets, err = decodeTickets(body[headLen:end], int(count))
	return body[:headLen], tickets, true, err
}

// decodeTickets decodes the ticket trailer buf, which must hold exactly count
// framed ticket records.
func decodeTickets(buf []byte, count int) ([]engine.Ticket, error) {
	if count > len(buf)/headerSize {
		return nil, fmt.Errorf("%w: %d tickets cannot fit in a %d-byte trailer", ErrTorn, count, len(buf))
	}
	tickets := make([]engine.Ticket, count)
	off := 0
	for i := range tickets {
		payload, next, done, err := nextRecord(buf, off)
		if done {
			err = fmt.Errorf("%w: the trailer ends after %d", ErrTorn, i)
		}
		if err == nil {
			err = decodeTicket(payload, &tickets[i])
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot ticket %d of %d: %w", i+1, count, err)
		}
		off = next
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes past snapshot ticket %d", ErrTorn, len(buf)-off, count)
	}
	return tickets, nil
}

// appendTicket appends t's binary form to dst: its fields in declaration
// order, strings as a uvarint length then the bytes, unsigned numbers as
// uvarints, Priority as a varint and Price as the uvarint of its IEEE 754
// bits byte-reversed (as encoding/gob does: a round price has few
// significant bytes, and those are the high ones).
func appendTicket(dst []byte, t *engine.Ticket) []byte {
	str := func(s string) {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	str(t.ID)
	str(string(t.Kind))
	str(string(t.Status))
	str(t.Participant)
	dst = binary.AppendUvarint(dst, t.Epoch)
	str(t.RequestID)
	str(t.TxID)
	dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(t.Price)))
	dst = binary.AppendVarint(dst, int64(t.Priority))
	dst = binary.AppendUvarint(dst, t.MatchedEpoch)
	str(t.Err)
	return dst
}

// decodeTicket decodes one appendTicket payload into t; the payload must hold
// exactly one ticket.
func decodeTicket(b []byte, t *engine.Ticket) error {
	bad := false
	uv := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return v
	}
	sv := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return v
	}
	str := func() string {
		n := uv()
		if n > uint64(len(b)) {
			bad = true
			return ""
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	t.ID = str()
	t.Kind = engine.SubmissionKind(str())
	t.Status = engine.TicketStatus(str())
	t.Participant = str()
	t.Epoch = uv()
	t.RequestID = str()
	t.TxID = str()
	t.Price = math.Float64frombits(bits.ReverseBytes64(uv()))
	t.Priority = int(sv())
	t.MatchedEpoch = uv()
	t.Err = str()
	if bad || len(b) != 0 {
		return fmt.Errorf("%w: ticket payload does not parse", ErrTorn)
	}
	return nil
}

// diskSnapshot is a snapshot file's JSON: the engine checkpoint plus its book
// under "settlements" — the archive mark, or in a snapshot from before the
// archive every settlement, listed.
type diskSnapshot struct {
	engine.SnapshotState
	Settlements json.RawMessage `json:"settlements"`
}

// readSnapshot decodes one snapshot file, in either form. Its Book is the cut
// of the archive prefix the mark names; a snapshot that lists its settlements
// gets an in-memory cut of them, marked as archiving nothing.
func readSnapshot(path string) (*engine.SnapshotState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head, tickets, trailer, err := splitSnapshot(raw)
	if err != nil {
		return nil, err
	}
	var d diskSnapshot
	if err := json.Unmarshal(head, &d); err != nil {
		return nil, err
	}
	if d.Platform == nil {
		return nil, errors.New("no platform checkpoint")
	}
	if trailer {
		if d.Tickets != nil {
			return nil, errors.New("tickets both in the JSON head and in the trailer")
		}
		d.Tickets = tickets
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
