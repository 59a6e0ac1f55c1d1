package dmms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ledger"
)

// sliceArchive is a ledger.Archive over settlements held in a slice; scanErr,
// when set, is what every Scan fails with.
type sliceArchive struct {
	got     []ledger.Settlement
	scanErr error
}

func (a *sliceArchive) Scan(m ledger.BookMark, fn func(ledger.Settlement) error) error {
	if a.scanErr != nil {
		return a.scanErr
	}
	for _, s := range a.got[:m.Count] {
		if err := fn(s); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint archives the book's unarchived entries into a, as a
// checkpointer does.
func (a *sliceArchive) checkpoint(b *ledger.SettlementBook) {
	c := b.Cut()
	if err := c.Unarchived(func(s ledger.Settlement) error { a.got = append(a.got, s); return nil }); err != nil {
		panic(err)
	}
	c.Archived(c.Extended(int64(len(a.got)), 0))
}

// TestSettlementsBody: the /settlements body, encoded entry by entry as the
// cuts stream, is byte for byte what encoding the merged list of views with
// writeJSON gave — over archived and held entries, entries with 0, 1 and 2
// seller cuts, an ex-post one, names JSON escapes, an unconserved book and
// two shards — and a failed archive read is an error, which the handler
// answers with a 500.
func TestSettlementsBody(t *testing.T) {
	c := ledger.FromFloat
	sales := []ledger.Settlement{
		{TxID: "tx-0001", Epoch: 1, Buyer: "b1", Price: c(100), ArbiterCut: c(5), SellerCuts: map[string]ledger.Currency{"s1": c(95)}},
		{TxID: "tx-0002", Epoch: 1, Buyer: "b<2>", Price: c(100), ArbiterCut: c(5),
			SellerCuts: map[string]ledger.Currency{"s1": c(47.5), "s&2": c(47.5)}},
		{TxID: "tx-0003", Epoch: 2, Buyer: "b1", Price: c(500), ExPost: true},
		{TxID: "tx-0004", Epoch: 3, Buyer: "b1", Price: c(0.1234567), ArbiterCut: c(0.1234567), SellerCuts: map[string]ledger.Currency{}},
		// Leaks 3 micro-units, so its book is not conserved.
		{TxID: "tx-0005", Epoch: 3, Buyer: "b3", Price: 1 << 62, ArbiterCut: 1 << 62, SellerCuts: map[string]ledger.Currency{"ü": -3}},
	}
	arc := &sliceArchive{}
	archived, mem := ledger.NewSettlementBook(arc), ledger.NewSettlementBook(nil)
	for i, s := range sales {
		archived.Record(s)
		if i == 2 {
			arc.checkpoint(archived)
		}
		if i < 2 {
			mem.Record(s)
		}
	}
	txID := func(i int, tx string) string { return fmt.Sprintf("s%d:%s", i, tx) }

	// What the handler wrote before: every view collected, then one Encode.
	old := func(cuts []ledger.BookCut) []byte {
		out, conserved := []SettlementView{}, true
		for i, cut := range cuts {
			conserved = conserved && cut.Conserved()
			err := cut.Each(func(st ledger.Settlement) error {
				v := SettlementView{TxID: txID(i, st.TxID), Epoch: st.Epoch, Buyer: st.Buyer,
					Price: st.Price.Float(), ArbiterCut: st.ArbiterCut.Float(), ExPost: st.ExPost}
				if len(st.SellerCuts) > 0 {
					v.SellerCuts = map[string]float64{}
					for name, c := range st.SellerCuts {
						v.SellerCuts[name] = c.Float()
					}
				}
				out = append(out, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]any{"settlements": out, "conserved": conserved}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, cuts := range [][]ledger.BookCut{
		nil,
		{mem.Cut()},
		{archived.Cut()},
		{archived.Cut(), mem.Cut()},
	} {
		got, err := settlementsBody(cuts, txID)
		if err != nil {
			t.Fatal(err)
		}
		if want := old(cuts); !bytes.Equal(got, want) {
			t.Fatalf("body\n%s\nwant\n%s", got, want)
		}
	}
	if got := archived.Cut().Count(); got != len(sales) {
		t.Fatalf("book holds %d entries, want %d", got, len(sales))
	}

	arc.scanErr = errors.New("archive unreadable")
	if _, err := settlementsBody([]ledger.BookCut{mem.Cut(), archived.Cut()}, txID); !errors.Is(err, arc.scanErr) {
		t.Fatalf("a failed archive read gave %v", err)
	}
}
