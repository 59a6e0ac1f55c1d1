package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/ledger"
)

// The settlement book's archive lives beside the segments as
// settlements.archive: every settlement a checkpoint has covered, one framed
// record each (the segment record format, JSON payload), in book order. Only
// the checkpointer writes it — appending what the book recorded since the
// previous checkpoint, which the book held packed until then (ledger's
// appendEntry) — and a snapshot carries, instead of the book, the
// ledger.BookMark of the archive prefix it covers. Boot checks that prefix
// against the mark without decoding it, and whole-book readers stream it back
// through bookArchive.

const bookArchiveName = "settlements.archive"

// bookArchive is the ledger.Archive over one book archive file.
type bookArchive string

// Scan implements ledger.Archive.
func (path bookArchive) Scan(m ledger.BookMark, fn func(ledger.Settlement) error) error {
	f, err := os.Open(string(path))
	if err != nil {
		return fmt.Errorf("wal: book archive: %w", err)
	}
	defer f.Close()
	if err := readBook(bufio.NewReaderSize(f, 64<<10), m, fn); err != nil {
		return fmt.Errorf("wal: book archive %s: %w", path, err)
	}
	return nil
}

// readBook decodes the m.Count records at the front of r into fn, checking
// each record's CRC and, once all are read, that they filled exactly m.Bytes
// bytes whose CRC-32C is m.CRC. A defect returns an error wrapping ErrTorn;
// fn's own error is returned as is.
func readBook(r io.Reader, m ledger.BookMark, fn func(ledger.Settlement) error) error {
	var (
		hdr [headerSize]byte
		buf []byte
		off int64
		crc uint32
	)
	for i := 0; i < m.Count; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil || off+headerSize > m.Bytes {
			return fmt.Errorf("%w: record %d of %d: no header within the mark's %d bytes (%v)", ErrTorn, i, m.Count, m.Bytes, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n > maxRecordSize || off+headerSize+n > m.Bytes {
			return fmt.Errorf("%w: record %d of %d: %d-byte payload runs past the mark's %d bytes", ErrTorn, i, m.Count, n, m.Bytes)
		}
		buf = slices.Grow(buf[:0], int(n))[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("%w: record %d of %d: %v", ErrTorn, i, m.Count, err)
		}
		if crc32.Checksum(buf, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return fmt.Errorf("%w: record %d of %d: crc mismatch", ErrTorn, i, m.Count)
		}
		var s ledger.Settlement
		if err := json.Unmarshal(buf, &s); err != nil {
			return fmt.Errorf("%w: record %d of %d: %v", ErrTorn, i, m.Count, err)
		}
		crc = crc32.Update(crc32.Update(crc, crcTable, hdr[:]), crcTable, buf)
		off += headerSize + n
		if err := fn(s); err != nil {
			return err
		}
	}
	if off != m.Bytes || crc != m.CRC {
		return fmt.Errorf("%w: %d records fill %d bytes (crc %08x), the mark says %d bytes (crc %08x)",
			ErrTorn, m.Count, off, crc, m.Bytes, m.CRC)
	}
	return nil
}

// checkBook verifies that the book archive in dir begins with the prefix m
// describes (checkPrefix). The error names the file.
func checkBook(dir string, m ledger.BookMark) error {
	if m.Count == 0 && m.Bytes == 0 {
		return nil // an empty prefix: there may be no archive yet
	}
	path := filepath.Join(dir, bookArchiveName)
	f, err := os.Open(path)
	if err == nil {
		err = checkPrefix(f, m)
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: book archive %s: %w", path, err)
	}
	return nil
}

// checkPrefix verifies, without decoding a record, that r begins with the
// m.Bytes bytes whose CRC-32C is m.CRC.
func checkPrefix(r io.Reader, m ledger.BookMark) error {
	if (m.Count == 0) != (m.Bytes == 0) || m.Bytes < int64(m.Count)*headerSize {
		return fmt.Errorf("mark %+v is inconsistent", m)
	}
	h := crc32.New(crcTable)
	n, err := io.Copy(h, io.LimitReader(r, m.Bytes))
	switch {
	case err != nil:
		return err
	case n < m.Bytes:
		return fmt.Errorf("holds %d bytes, the snapshot's mark %d", n, m.Bytes)
	case h.Sum32() != m.CRC:
		return fmt.Errorf("crc %08x over the first %d bytes, the snapshot's mark %08x", h.Sum32(), m.Bytes, m.CRC)
	}
	return nil
}

// appendBook makes the book archive in dir hold the whole cut: it writes the
// cut's unarchived entries as framed records at the cut's mark — over
// whatever an unfinished checkpoint left past it, which can only be the same
// entries — fsyncs them and returns the mark of the extended archive. The
// file is created by the first checkpoint with an entry to archive.
func appendBook(dir string, cut ledger.BookCut) (ledger.BookMark, error) {
	base := cut.Mark
	if cut.Count() == base.Count {
		return cut.Extended(base.Bytes, base.CRC), nil
	}
	path := filepath.Join(dir, bookArchiveName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return ledger.BookMark{}, fmt.Errorf("wal: book archive: %w", err)
	}
	end, crc, err := writeBook(f, cut)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ledger.BookMark{}, fmt.Errorf("wal: book archive %s: %w", path, err)
	}
	return cut.Extended(end, crc), nil
}

// writeBook writes the cut's unarchived entries as framed records into f at
// its mark's end and returns the archive's new end and CRC-32C. Each record
// is the entry's json.Marshal.
func writeBook(f *os.File, cut ledger.BookCut) (int64, uint32, error) {
	base := cut.Mark
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() < base.Bytes {
		return 0, 0, fmt.Errorf("holds %d bytes, short of the %d already archived", st.Size(), base.Bytes)
	}
	bw := bufio.NewWriterSize(io.NewOffsetWriter(f, base.Bytes), 64<<10)
	end, crc := base.Bytes, base.CRC
	var rec []byte
	err = cut.Unarchived(func(s ledger.Settlement) error {
		payload, err := json.Marshal(&s)
		if err != nil {
			return err
		}
		rec = appendRecord(rec[:0], payload)
		crc = crc32.Update(crc, crcTable, rec)
		end += int64(len(rec))
		_, err = bw.Write(rec)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return end, crc, bw.Flush()
}

// trimBook cuts the book archive in dir back to the first size bytes:
// whatever a checkpoint appended past the mark boot restored from, which the
// WAL tail has re-recorded into the book. A missing archive is fine.
func trimBook(dir string, size int64) error {
	path := filepath.Join(dir, bookArchiveName)
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) || err == nil && st.Size() <= size {
		return nil
	}
	if err == nil {
		err = os.Truncate(path, size)
	}
	if err != nil {
		return fmt.Errorf("wal: trim book archive: %w", err)
	}
	return nil
}
