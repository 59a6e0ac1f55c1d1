package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// entries collects every entry of a cut in record order.
func entries(t *testing.T, c BookCut) []Settlement {
	t.Helper()
	var out []Settlement
	if err := c.Each(func(s Settlement) error { out = append(out, s); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSettlementBookConservation(t *testing.T) {
	b := NewSettlementBook(nil)
	b.Record(Settlement{
		TxID: "tx-1", Epoch: 1, Buyer: "b1", Price: FromFloat(100),
		ArbiterCut: FromFloat(10),
		SellerCuts: map[string]Currency{"s1": FromFloat(45), "s2": FromFloat(45)},
	})
	b.Record(Settlement{
		TxID: "tx-2", Epoch: 2, Buyer: "b2", Price: FromFloat(60),
		ArbiterCut: FromFloat(6),
		SellerCuts: map[string]Currency{"s1": FromFloat(54)},
	})
	if !b.Cut().Conserved() {
		t.Fatal("balanced settlements reported unconserved")
	}
	if got := b.Debits(); got != FromFloat(160) {
		t.Fatalf("debits: want 160, got %s", got)
	}
	if got := b.Credits(); got != FromFloat(160) {
		t.Fatalf("credits: want 160, got %s", got)
	}
	if got := entries(t, b.Cut()); len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("entries: %v", got)
	}

	// A leaky settlement (price not fully fanned out) breaks conservation.
	b.Record(Settlement{
		TxID: "tx-3", Epoch: 3, Buyer: "b3", Price: FromFloat(100),
		ArbiterCut: FromFloat(10),
		SellerCuts: map[string]Currency{"s1": FromFloat(50)},
	})
	if b.Cut().Conserved() {
		t.Fatal("missing 40 units went undetected")
	}
}

func TestSettlementBookExPostSkipped(t *testing.T) {
	b := NewSettlementBook(nil)
	// Ex-post: deposit escrowed, cuts unknown until the report — must not
	// count against conservation or the credit/debit totals.
	b.Record(Settlement{TxID: "tx-1", Epoch: 1, Buyer: "b1", Price: FromFloat(500), ExPost: true})
	if !b.Cut().Conserved() {
		t.Fatal("ex-post settlement should be skipped by Conserved")
	}
	if b.Debits() != 0 || b.Credits() != 0 {
		t.Fatalf("ex-post settlement leaked into totals: debits=%s credits=%s", b.Debits(), b.Credits())
	}
	if b.Cut().Count() != 1 {
		t.Fatalf("count: want 1, got %d", b.Cut().Count())
	}
}

func TestSettlementBookRoundingTolerance(t *testing.T) {
	b := NewSettlementBook(nil)
	// Each cut may round by one micro-unit; a 3-way split may be off by up
	// to len(cuts)+1 micro-units in total and still conserve.
	b.Record(Settlement{
		TxID: "tx-1", Epoch: 1, Buyer: "b1", Price: FromFloat(100),
		ArbiterCut: FromFloat(100.0 / 3),
		SellerCuts: map[string]Currency{
			"s1": FromFloat(100.0 / 3),
			"s2": FromFloat(100.0 / 3),
		},
	})
	if !b.Cut().Conserved() {
		t.Fatal("micro-unit rounding should be tolerated")
	}
}

func TestSettlementBookConcurrent(t *testing.T) {
	b := NewSettlementBook(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Record(Settlement{
					TxID: fmt.Sprintf("tx-%d-%d", g, i), Epoch: uint64(g),
					Buyer: "b", Price: FromFloat(10), ArbiterCut: FromFloat(1),
					SellerCuts: map[string]Currency{"s": FromFloat(9)},
				})
			}
		}(g)
	}
	wg.Wait()
	if b.Cut().Count() != 400 {
		t.Fatalf("count: want 400, got %d", b.Cut().Count())
	}
	if !b.Cut().Conserved() {
		t.Fatal("conservation violated")
	}
	epochs := map[uint64]bool{}
	for _, s := range entries(t, b.Cut()) {
		epochs[s.Epoch] = true
	}
	if b.Cut().Count() != 400 || len(epochs) != 8 {
		t.Fatalf("cut inconsistent: %d entries over %d epochs", b.Cut().Count(), len(epochs))
	}
}

// memArchive is an in-memory Archive: the entries a checkpoint appended.
type memArchive struct {
	mu  sync.Mutex
	got []Settlement
}

func (a *memArchive) Scan(m BookMark, fn func(Settlement) error) error {
	a.mu.Lock()
	got := a.got
	a.mu.Unlock()
	if m.Count > len(got) {
		return fmt.Errorf("archive holds %d entries, mark %d", len(got), m.Count)
	}
	for _, s := range got[:m.Count] {
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint archives what c has not yet archived into a, as a checkpointer
// does, and tells the book.
func (a *memArchive) checkpoint(c BookCut) BookMark {
	a.mu.Lock()
	a.got = a.got[:c.Mark.Count:c.Mark.Count]
	if err := c.Unarchived(func(s Settlement) error { a.got = append(a.got, s); return nil }); err != nil {
		panic(err)
	}
	m := c.Extended(int64(len(a.got)), 0)
	a.mu.Unlock()
	c.Archived(m)
	return m
}

// TestSettlementBookConcurrentCheckpoints: recording, checkpointing and
// whole-book reading run at once, as the epoch loop, the background
// checkpointer and GET /settlements do. Every cut a reader takes streams
// exactly the entries recorded before it, in order, with totals to match.
func TestSettlementBookConcurrentCheckpoints(t *testing.T) {
	const total = 2000
	arc := &memArchive{}
	b := NewSettlementBook(arc)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				arc.checkpoint(b.Cut())
			}
		}
	}()
	go func() { // a whole-book reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			c := b.Cut()
			n := 0
			err := c.Each(func(s Settlement) error {
				if s.TxID != fmt.Sprintf("tx-%d", n) {
					return fmt.Errorf("entry %d is %s", n, s.TxID)
				}
				n++
				return nil
			})
			if err == nil && (n != c.Count() || c.Debits() != FromFloat(10)*Currency(n)) {
				err = fmt.Errorf("cut of %d streamed %d entries, debits %s", c.Count(), n, c.Debits())
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		b.Record(Settlement{TxID: fmt.Sprintf("tx-%d", i), Buyer: "b", Price: FromFloat(10),
			ArbiterCut: FromFloat(1), SellerCuts: map[string]Currency{"s": FromFloat(9)}})
	}
	close(done)
	wg.Wait()
	if got := entries(t, b.Cut()); len(got) != total || !b.Cut().Conserved() {
		t.Fatalf("book streams %d of %d entries", len(got), total)
	}
}

// TestSettlementBookArchive: with an archive, what a checkpoint archived
// leaves memory and is streamed back ahead of the entries held; a cut stays
// the book as it was however the book moves on; a restored book needs only
// the mark and the entries past it; and without an archive nothing leaves.
func TestSettlementBookArchive(t *testing.T) {
	sale := func(i int, leak Currency) Settlement {
		return Settlement{TxID: fmt.Sprintf("tx-%d", i), Epoch: uint64(i), Buyer: "b", Price: FromFloat(10),
			ArbiterCut: FromFloat(1) - leak, SellerCuts: map[string]Currency{"s": FromFloat(9)}}
	}
	var all []Settlement
	arc := &memArchive{}
	b, mem := NewSettlementBook(arc), NewSettlementBook(nil)
	record := func(n int) {
		for i := 0; i < n; i++ {
			s := sale(len(all), 0)
			all = append(all, s)
			b.Record(s)
			mem.Record(s)
		}
	}
	record(5)
	before := b.Cut()
	m := arc.checkpoint(before)
	arc.checkpoint(mem.Cut())
	record(3)
	if b.Cut().Count() != 8 || b.n != 3 || b.dropped != 5 || mem.n != 8 {
		t.Fatalf("archived entries did not leave memory: count %d, held %d, dropped %d (in-memory book holds %d)",
			b.Cut().Count(), b.n, b.dropped, mem.n)
	}
	if got := entries(t, before); !reflect.DeepEqual(got, all[:5]) {
		t.Fatalf("the cut moved with the book: %v", got)
	}
	for _, book := range []*SettlementBook{b, mem} {
		if got := entries(t, book.Cut()); !reflect.DeepEqual(got, all) {
			t.Fatalf("book streams %v, want %v", got, all)
		}
	}
	var u []Settlement
	if err := b.Cut().Unarchived(func(s Settlement) error { u = append(u, s); return nil }); err != nil || len(u) != 3 || u[0].TxID != "tx-5" {
		t.Fatalf("unarchived entries %v", u)
	}
	if m.Count != 5 || m.Debits != FromFloat(50) || m.Credits != FromFloat(50) || !m.Conserved {
		t.Fatalf("mark %+v", m)
	}

	// A checkpoint decoded from disk carries only the mark.
	if _, err := RestoreSettlementBook(ArchivedCut(m), nil); err == nil {
		t.Fatal("restored an archived book with no archive")
	}
	r, err := RestoreSettlementBook(ArchivedCut(m), arc)
	if err != nil {
		t.Fatal(err)
	}
	r.Record(sale(5, FromFloat(1)))
	if r.Cut().Count() != 6 || r.Cut().Conserved() || r.Debits() != FromFloat(60) || r.Credits() != FromFloat(59) {
		t.Fatalf("restored totals: count %d conserved %v debits %s credits %s", r.Cut().Count(), r.Cut().Conserved(), r.Debits(), r.Credits())
	}
	if got := entries(t, r.Cut()); len(got) != 6 || !reflect.DeepEqual(got[:5], all[:5]) {
		t.Fatalf("restored book streams %v", got)
	}
	// An in-memory book's cut restores onto an archive by dropping what the
	// mark covers.
	r2, err := RestoreSettlementBook(mem.Cut(), arc)
	if err != nil {
		t.Fatal(err)
	}
	if r2.n != 3 || r2.dropped != 5 || !reflect.DeepEqual(entries(t, r2.Cut()), all) {
		t.Fatalf("restored from an in-memory cut: held %d, dropped %d", r2.n, r2.dropped)
	}
	// An older checkpoint finishing late moves nothing back.
	before.Archived(ArchivedCut(BookMark{}).Extended(0, 0))
	if b.dropped != 5 {
		t.Fatalf("a stale mark moved the book back to %d dropped", b.dropped)
	}
}

// FuzzBookEntry: whatever a settlement holds — nil or empty seller cuts,
// empty or non-ASCII names, negative or extreme amounts — the entry the book
// packs decodes back to one json.Marshal writes exactly as the original, so
// a checkpoint's archive records do not depend on whether an entry was held
// packed. names lists the seller cuts, one per line; CI runs this with a
// short -fuzztime budget.
func FuzzBookEntry(f *testing.F) {
	f.Add("tx-0001", uint64(1), "buyer", int64(100e6), int64(5e6), "seller", int64(95e6), false, false)
	f.Add("tx-0002", uint64(2), "b", int64(100e6), int64(5e6), "s1\ns2", int64(-47e6), true, false)
	f.Add("", uint64(0), "", int64(0), int64(0), "", int64(0), false, true)
	f.Add("tx-ü", uint64(math.MaxUint64), "käufer", int64(math.MinInt64), int64(math.MaxInt64), "\n日本\n\xff", int64(math.MinInt64), false, false)
	f.Add(strings.Repeat("x", 300), uint64(7), "b", int64(1), int64(-1), "a\nb\nc\nd\ne\nf", int64(3), true, true)
	f.Fuzz(func(t *testing.T, tx string, epoch uint64, buyer string, price, arbiter int64, names string, cut int64, exPost, nilCuts bool) {
		s := Settlement{TxID: tx, Epoch: epoch, Buyer: buyer, Price: Currency(price), ArbiterCut: Currency(arbiter), ExPost: exPost}
		if !nilCuts {
			s.SellerCuts = map[string]Currency{}
			for i, name := range strings.Split(names, "\n") {
				if names != "" {
					s.SellerCuts[name] = Currency(cut) * Currency(i+1)
				}
			}
		}
		b := NewSettlementBook(nil)
		b.Record(s)
		b.Record(s)
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		got := entries(t, b.Cut())
		if len(got) != 2 {
			t.Fatalf("book streams %d entries, want 2", len(got))
		}
		for _, e := range got {
			if have, err := json.Marshal(&e); err != nil || string(have) != string(want) {
				t.Fatalf("entry decodes to %s (%v), want %s", have, err, want)
			}
		}
	})
}

// TestBookBytesPerEntry: the book holds an unarchived one-seller sale in at
// most 64 B of live heap, all told. The entries are packed into one byte log,
// ~40 B each here; held as Settlements with a map of cuts apiece they took
// ~370 B.
func TestBookBytesPerEntry(t *testing.T) {
	const n = 16 << 10
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	b := NewSettlementBook(nil)
	for i := 0; i < n; i++ {
		b.Record(Settlement{TxID: fmt.Sprintf("tx-%04d", i), Epoch: uint64(i / 64), Buyer: fmt.Sprintf("buyer%03d", i%500),
			Price: FromFloat(100), ArbiterCut: FromFloat(5),
			SellerCuts: map[string]Currency{fmt.Sprintf("seller%02d", i%40): FromFloat(95)}})
	}
	after := heap()
	runtime.KeepAlive(b)
	per := (float64(after) - float64(before)) / n
	t.Logf("%.1f B per entry", per)
	if per > 64 {
		t.Errorf("the book holds %.1f B per entry, want <= 64", per)
	}
}
