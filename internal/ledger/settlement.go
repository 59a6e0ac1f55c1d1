package ledger

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"sync"
)

// Settlement is one cleared sale as derived from the engine's tx-settled
// events: what the buyer paid and how the revenue was carved up. It is the
// ledger-side mirror of an arbiter.Transaction, folded in at append so
// settlement accounting survives independently of the arbiter's in-memory
// history.
type Settlement struct {
	TxID       string
	Epoch      uint64
	Buyer      string
	Price      Currency
	ArbiterCut Currency
	SellerCuts map[string]Currency
	// ExPost settlements escrow the deposit at delivery and price on the
	// buyer's later report, so their cuts are not yet final.
	ExPost bool
}

// BookMark describes the prefix of a settlement book an archive holds
// durably: how many entries and archive bytes it spans, the CRC-32C of those
// bytes, and the book's totals over it — so a book restored from a checkpoint
// knows its debits, credits and conservation without reading an archived
// entry back.
type BookMark struct {
	Count     int      `json:"count"`
	Bytes     int64    `json:"bytes"`
	CRC       uint32   `json:"crc32c"`
	Debits    Currency `json:"debits"`
	Credits   Currency `json:"credits"`
	Conserved bool     `json:"conserved"`
}

// Archive reads back the archived prefix of a settlement book.
type Archive interface {
	// Scan calls fn with the m.Count archived settlements in record order. It
	// fails unless they fill exactly the m.Bytes archive bytes whose CRC-32C
	// is m.CRC, and stops at fn's first error.
	Scan(m BookMark, fn func(Settlement) error) error
}

// totals are a book's running sums over every entry: what buyers paid and
// what the arbiter and sellers received across upfront settlements, and
// whether any of them leaked.
type totals struct {
	debits, credits Currency
	leaky           bool
}

// add folds in one settlement with its seller cuts. An upfront one leaks
// when its fan-out misses its price by more than the rounding tolerance: one
// micro-unit per cut plus one for the fee. Ex-post deliveries never leak:
// their revenue split happens at report time.
func (t *totals) add(s *Settlement, cuts []sellerCut) {
	if s.ExPost {
		return
	}
	credits := s.ArbiterCut
	for _, c := range cuts {
		credits += c.cut
	}
	t.debits += s.Price
	t.credits += credits
	diff := s.Price - credits
	if diff < 0 {
		diff = -diff
	}
	t.leaky = t.leaky || diff > Currency(len(cuts)+1)
}

// SettlementBook records settlements consumed from the engine's event log
// and checks the market's conservation invariant: every settled price is
// fully accounted for by the arbiter cut plus the seller cuts. It keeps
// running totals, so its checks are O(1). The entries it holds are packed
// into one byte log (appendEntry, ~35–40 B for a one-seller sale) and decoded
// back to Settlements only when read. With an archive, they stay packed until
// a checkpoint archives them, then leave memory and are read back from the
// archive; without one, every entry stays in memory.
type SettlementBook struct {
	mu      sync.Mutex
	archive Archive
	mark    BookMark // the prefix the archive holds durably
	dropped int      // entries only the archive holds: mark.Count with an archive, else 0
	held    []byte   // the entries from number dropped on, packed
	n       int      // how many entries held packs
	sum     totals
}

// NewSettlementBook creates an empty book. With a non-nil archive, entries
// leave memory once a checkpoint has archived them (BookCut.Archived).
func NewSettlementBook(archive Archive) *SettlementBook {
	return &SettlementBook{archive: archive}
}

// RestoreSettlementBook rebuilds a book from a checkpoint's cut: its totals
// and archived mark, plus the entries past the mark. With an archive the
// book reads the archived prefix from it and holds only what follows the
// mark; without one the cut must still hold every entry itself.
func RestoreSettlementBook(c BookCut, archive Archive) (*SettlementBook, error) {
	if archive == nil && c.dropped > 0 {
		return nil, errors.New("ledger: the checkpoint archived settlements but the book has no archive to read them from")
	}
	// A cut's entries are clipped (Cut), so the book's appends never write
	// into them.
	b := &SettlementBook{archive: archive, mark: c.Mark, dropped: c.dropped, held: c.held, n: c.n, sum: c.sum}
	if k := c.Mark.Count - c.dropped; archive != nil && k > 0 {
		b.held, b.n, b.dropped = slices.Clone(skipEntries(c.held, k)), c.n-k, c.Mark.Count
	}
	return b, nil
}

// Record appends one settlement.
func (b *SettlementBook) Record(s Settlement) { b.record(&s, s.SellerCuts, nil, s.SellerCuts == nil) }

// RecordSale appends the settlement s with the seller cuts given as float
// amounts, each converted by FromFloat, in place of s.SellerCuts: the form
// the engine's events carry them in, so recording a sale builds no map. A
// nil cuts records an empty set, not a nil one.
func (b *SettlementBook) RecordSale(s Settlement, cuts map[string]float64) {
	b.record(&s, nil, cuts, false)
}

// record packs s with the seller cuts of exact and of float, sorted by name,
// onto the log, framed by its length.
func (b *SettlementBook) record(s *Settlement, exact map[string]Currency, float map[string]float64, nilCuts bool) {
	var cutBuf [4]sellerCut
	cuts := cutBuf[:0]
	for name, c := range exact {
		cuts = append(cuts, sellerCut{name, c})
	}
	for name, c := range float {
		cuts = append(cuts, sellerCut{name, FromFloat(c)})
	}
	slices.SortFunc(cuts, func(x, y sellerCut) int { return strings.Compare(x.name, y.name) })
	var entryBuf [128]byte
	entry := appendEntry(entryBuf[:0], s, cuts, nilCuts)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.held = append(binary.AppendUvarint(b.held, uint64(len(entry))), entry...)
	b.n++
	b.sum.add(s, cuts)
}

// HeldBytes returns how many bytes the entries held in memory are packed
// into: none once a checkpoint has archived them all.
func (b *SettlementBook) HeldBytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.held)
}

// Debits sums what buyers paid across all upfront settlements.
func (b *SettlementBook) Debits() Currency { return b.Cut().Debits() }

// Credits sums what the arbiter and sellers received across all upfront
// settlements.
func (b *SettlementBook) Credits() Currency { return b.Cut().Credits() }

// Cut returns a consistent view of the book as it stands: the entries and
// the totals over them agree however many are recorded meanwhile. O(1): the
// entries held in memory are shared, not copied — the book only appends and
// never changes an entry.
func (b *SettlementBook) Cut() BookCut {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.held)
	return BookCut{Mark: b.mark, sum: b.sum, dropped: b.dropped, held: b.held[:n:n], n: b.n, archive: b.archive, book: b}
}

// archived records that the archive durably holds the book up to m: the
// entries m covers leave memory when the book can read them back. A mark
// behind the current one (an older checkpoint finishing late) changes
// nothing.
func (b *SettlementBook) archived(m BookMark) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m.Count <= b.mark.Count {
		return
	}
	b.mark = m
	if b.archive != nil {
		// A fresh slice, so the entries m covers are not pinned behind it.
		k := m.Count - b.dropped
		b.held, b.n, b.dropped = slices.Clone(skipEntries(b.held, k)), b.n-k, m.Count
	}
}

// BookCut is a read-only view of a settlement book at one instant — the
// settlement half of an engine checkpoint. Mark is the prefix the book's
// archive held at the cut; the entries past it are Unarchived.
type BookCut struct {
	Mark    BookMark
	sum     totals
	dropped int    // entries to read from the archive: 0 or Mark.Count
	held    []byte // the entries from number dropped on, packed
	n       int    // how many entries held packs
	archive Archive
	book    *SettlementBook // nil for a cut decoded from a checkpoint
}

// ArchivedCut is the cut a checkpoint describes by its mark alone: every
// entry is in the archive.
func ArchivedCut(m BookMark) BookCut {
	return BookCut{Mark: m, dropped: m.Count,
		sum: totals{debits: m.Debits, credits: m.Credits, leaky: m.Count > 0 && !m.Conserved}}
}

// Count returns the number of entries in the cut.
func (c BookCut) Count() int { return c.dropped + c.n }

// Debits sums what buyers paid across the cut's upfront settlements.
func (c BookCut) Debits() Currency { return c.sum.debits }

// Credits sums what the arbiter and sellers received across the cut's
// upfront settlements.
func (c BookCut) Credits() Currency { return c.sum.credits }

// Conserved reports whether every upfront settlement in the cut is fully
// accounted for (see SettlementBook.Conserved).
func (c BookCut) Conserved() bool { return !c.sum.leaky }

// Unarchived calls fn with every entry past Mark in record order — what the
// next checkpoint appends to the archive — and stops at fn's first error.
func (c BookCut) Unarchived(fn func(Settlement) error) error {
	return eachEntry(skipEntries(c.held, c.Mark.Count-c.dropped), fn)
}

// Extended returns the mark of an archive holding the whole cut: Mark
// extended by the unarchived entries, which took the archive to bytes bytes
// with checksum crc.
func (c BookCut) Extended(bytes int64, crc uint32) BookMark {
	return BookMark{Count: c.Count(), Bytes: bytes, CRC: crc,
		Debits: c.sum.debits, Credits: c.sum.credits, Conserved: !c.sum.leaky}
}

// Archived tells the book the cut was taken from that its archive now
// durably holds everything up to m (a mark Extended from this cut).
func (c BookCut) Archived(m BookMark) {
	if c.book != nil {
		c.book.archived(m)
	}
}

// Each calls fn with every entry of the cut in record order — the archived
// prefix streamed from the archive, then the entries held in memory — and
// stops at fn's first error.
func (c BookCut) Each(fn func(Settlement) error) error {
	if c.dropped > 0 {
		if c.archive == nil {
			return errors.New("ledger: archived settlements with no archive to read them from")
		}
		if err := c.archive.Scan(c.Mark, fn); err != nil {
			return err
		}
	}
	return eachEntry(c.held, fn)
}
