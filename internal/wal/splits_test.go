package wal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/market"
)

// formatSplit renders one settlement's revenue split: the book's price,
// arbiter cut and seller cuts, then the ex-post fractions fixed at delivery.
// Every figure is written so that it parses back to the same float64.
func formatSplit(s ledger.Settlement, expost map[string]float64) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s price=%s arbiter=%s cuts:", s.TxID, s.Buyer, g(s.Price.Float()), g(s.ArbiterCut.Float()))
	for _, seller := range sortedKeys(s.SellerCuts) {
		fmt.Fprintf(&b, " %s=%s", seller, g(s.SellerCuts[seller].Float()))
	}
	b.WriteString(" expost:")
	for _, owner := range sortedKeys(expost) {
		fmt.Fprintf(&b, " %s=%s", owner, g(expost[owner]))
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSplitsArePinned pins every standard design's revenue splits on the
// scripts whose settlements pay several sellers. The literals are today's
// figures: a change to the coalition game or the allocators that moves any
// split must re-pin them here, in the open.
func TestSplitsArePinned(t *testing.T) {
	scripts := map[string]func() [][]op{"join": joinScript, "churn": churnScript}
	for _, design := range market.StandardDesigns().Labels() {
		for _, name := range []string{"join", "churn"} {
			t.Run(design+"/"+name, func(t *testing.T) {
				p, e, _ := runUninterrupted(t, core.Options{Design: design}, scripts[name](), SyncOff)
				snap, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				expost := map[string]map[string]float64{}
				for _, tx := range p.Arbiter.History() {
					expost[tx.ID] = tx.ExPostShares
				}
				var got []string
				for _, s := range bookEntries(t, snap.Book) {
					got = append(got, formatSplit(s, expost[s.TxID]))
				}
				want := pinnedSplits[design+"/"+name]
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("splits moved:\ngot\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
				}
			})
		}
	}
}

var pinnedSplits = map[string][]string{
	"expost-audited/churn": {
		"tx-0002 b1 price=150 arbiter=0 cuts: expost: s1=0.5 s2=0.5",
		"tx-0005 b2 price=120 arbiter=0 cuts: expost: s1=0.5 s2=0.5",
		"tx-0007 b1 price=130 arbiter=0 cuts: expost: s1=0.5 s2=0.5",
		"tx-0009 b2 price=140 arbiter=0 cuts: expost: s2=0.5 s3=0.5",
		"tx-0012 b4 price=80 arbiter=0 cuts: expost: s2=0.5 s3=0.5",
		"tx-0013 b1 price=200 arbiter=0 cuts: expost: s2=0.5 s3=0.5",
	},
	"expost-audited/join": {
		"tx-0002 b1 price=150 arbiter=0 cuts: expost: s1=0.5 s2=0.5",
		"tx-0005 b2 price=120 arbiter=0 cuts: expost: s1=0.5 s2=0.5",
		"tx-0008 b4 price=80 arbiter=0 cuts: expost: s2=0.5 s3=0.5",
		"tx-0009 b1 price=200 arbiter=0 cuts: expost: s2=0.5 s3=0.5",
	},
	"external-rsop/churn": {
		"tx-0002 b1 price=150 arbiter=7.5 cuts: s1=71.25 s2=71.25 expost:",
		"tx-0005 b2 price=120 arbiter=6 cuts: s1=57 s2=57 expost:",
		"tx-0007 b1 price=130 arbiter=6.5 cuts: s1=61.75 s2=61.75 expost:",
		"tx-0009 b2 price=140 arbiter=7 cuts: s2=66.5 s3=66.5 expost:",
		"tx-0012 b1 price=80 arbiter=4 cuts: s2=38 s3=38 expost:",
		"tx-0013 b4 price=80 arbiter=4 cuts: s2=38 s3=38 expost:",
	},
	"external-rsop/join": {
		"tx-0002 b1 price=150 arbiter=7.5 cuts: s1=71.25 s2=71.25 expost:",
		"tx-0005 b2 price=120 arbiter=6 cuts: s1=57 s2=57 expost:",
		"tx-0008 b1 price=80 arbiter=4 cuts: s2=38 s3=38 expost:",
		"tx-0009 b4 price=80 arbiter=4 cuts: s2=38 s3=38 expost:",
	},
	"external-vickrey/churn": {
		"tx-0002 b1 price=0 arbiter=0 cuts: expost:",
		"tx-0005 b2 price=0 arbiter=0 cuts: expost:",
		"tx-0007 b1 price=0 arbiter=0 cuts: expost:",
		"tx-0009 b2 price=0 arbiter=0 cuts: expost:",
		"tx-0012 b4 price=0 arbiter=0 cuts: expost:",
		"tx-0013 b1 price=0 arbiter=0 cuts: expost:",
	},
	"external-vickrey/join": {
		"tx-0002 b1 price=0 arbiter=0 cuts: expost:",
		"tx-0005 b2 price=0 arbiter=0 cuts: expost:",
		"tx-0008 b4 price=0 arbiter=0 cuts: expost:",
		"tx-0009 b1 price=0 arbiter=0 cuts: expost:",
	},
	"internal-welfare/churn": {
		"tx-0002 b1 price=10 arbiter=0 cuts: s1=5 s2=5 expost:",
		"tx-0005 b2 price=10 arbiter=0 cuts: s1=5 s2=5 expost:",
		"tx-0007 b1 price=10 arbiter=0 cuts: s1=5 s2=5 expost:",
		"tx-0009 b2 price=10 arbiter=0 cuts: s2=5 s3=5 expost:",
		"tx-0012 b4 price=10 arbiter=0 cuts: s2=5 s3=5 expost:",
		"tx-0013 b1 price=10 arbiter=0 cuts: s2=5 s3=5 expost:",
	},
	"internal-welfare/join": {
		"tx-0002 b1 price=10 arbiter=0 cuts: s1=5 s2=5 expost:",
		"tx-0005 b2 price=10 arbiter=0 cuts: s1=5 s2=5 expost:",
		"tx-0008 b4 price=10 arbiter=0 cuts: s2=5 s3=5 expost:",
		"tx-0009 b1 price=10 arbiter=0 cuts: s2=5 s3=5 expost:",
	},
	"posted-baseline/churn": {
		"tx-0002 b1 price=100 arbiter=5 cuts: s1=47.5 s2=47.5 expost:",
		"tx-0005 b2 price=100 arbiter=5 cuts: s1=47.5 s2=47.5 expost:",
		"tx-0007 b1 price=100 arbiter=5 cuts: s1=47.5 s2=47.5 expost:",
		"tx-0009 b2 price=100 arbiter=5 cuts: s2=47.5 s3=47.5 expost:",
		"tx-0012 b1 price=100 arbiter=5 cuts: s2=47.5 s3=47.5 expost:",
	},
	"posted-baseline/join": {
		"tx-0002 b1 price=100 arbiter=5 cuts: s1=47.5 s2=47.5 expost:",
		"tx-0005 b2 price=100 arbiter=5 cuts: s1=47.5 s2=47.5 expost:",
		"tx-0008 b1 price=100 arbiter=5 cuts: s2=47.5 s3=47.5 expost:",
	},
}
