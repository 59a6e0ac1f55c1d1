package arbiter

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dod"
	"repro/internal/wtp"
)

// BenchmarkMatchRound measures round cost against the size of the *settled*
// request history. Before the open-request index (reqByID + openList) every
// round — MatchRound and PriceRound alike — walked the full request
// history, so cost grew with lifetime volume; now it tracks the open set.
//
// Measured on a linux/amd64 Xeon @2.10GHz (go -benchtime 100x), four
// permanently open requests per round, MatchRound variant:
//
//	                 before (full-history scan)   after (open index)
//	history=0                2.4 µs/op                 1.5 µs/op
//	history=10000           13.7 µs/op                 1.6 µs/op
//	history=100000         363.0 µs/op                 3.4 µs/op
//
// (PriceRound over explicit IDs tracked the same curve: 355 µs -> 3.1 µs at 100k.)
// The old round cost ~O(open + settled); the new one tracks O(open).
func BenchmarkMatchRound(b *testing.B) {
	for _, hist := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("history=%d", hist), func(b *testing.B) {
			a, err := New(mkDesign())
			if err != nil {
				b.Fatal(err)
			}
			if err := a.RegisterParticipant("b1", 1e9); err != nil {
				b.Fatal(err)
			}
			fn := func() *wtp.Function {
				return &wtp.Function{
					Buyer: "b1",
					Task:  wtp.CoverageTask{Columns: []string{"never", "supplied"}, WantRows: 1},
					Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 10}},
				}
			}
			want := dod.Want{Columns: []string{"never", "supplied"}}
			for i := 0; i < hist; i++ {
				if _, err := a.SubmitRequest(want, fn()); err != nil {
					b.Fatal(err)
				}
			}
			// Settle the backlog without the ledger round trips: the bench
			// isolates round cost, not settlement cost.
			a.mu.Lock()
			for _, r := range a.openList {
				r.Open = false
			}
			a.mu.Unlock()
			// The live open set: four requests no supply will ever cover, so
			// every measured round sees the same state.
			var ids []string
			for i := 0; i < 4; i++ {
				id, err := a.SubmitRequest(want, fn())
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, id)
			}
			b.Run("MatchRound", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := a.MatchRound(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("PriceRound", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := a.PriceRound(context.Background(), ids, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
