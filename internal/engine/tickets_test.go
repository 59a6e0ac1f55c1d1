package engine

import (
	"math"
	"testing"
)

// FuzzTicketRecord: a terminal ticket comes back out of the ticket window
// exactly as it went in — whatever its strings, numbers and IDs, in the
// arbiter's counter form or not — by seq, from a window that also holds the
// next seq's; and once retired it is gone, side-table entry included, and the
// other still found.
func FuzzTicketRecord(f *testing.F) {
	f.Add(uint64(3), byte(2), false, int32(1), uint64(2), uint64(2), uint64(math.Float64bits(100)), "b1", "req-0001", "tx-0002", "")
	f.Add(uint64(1<<40), byte(0), true, int32(-5), uint64(7), uint64(0), uint64(math.Float64bits(math.NaN())), "", "req-01", "s0:tx-0003", "engine: buyer \"x\" is not registered")
	f.Add(uint64(999999), byte(3), false, int32(math.MaxInt32), uint64(math.MaxUint64), uint64(1), uint64(1<<63), "ü|\x00", "req-12345", "tx-", "e")
	f.Add(uint64(1000000), byte(1), true, int32(math.MinInt32), uint64(0), uint64(math.MaxUint64), uint64(0), "s1", "req-+001", "tx-0000", "")
	f.Fuzz(func(t *testing.T, seq uint64, kind byte, failed bool, priority int32, epoch, matched, price uint64,
		participant, requestID, txID, err string) {
		if seq == 0 || seq == math.MaxUint64 {
			return // no submission has seq 0; seq+1 is the neighbour
		}
		in := heldTicket{kind: kind % uint8(len(ticketKinds)), status: heldDone, priority: priority, epoch: epoch,
			matchedEpoch: matched, price: math.Float64frombits(price), participant: participant,
			requestID: requestID, txID: txID, err: err}
		if failed {
			in.status = heldFailed
		}
		same := func(a, b heldTicket) bool {
			pa, pb := a.price, b.price
			a.price, b.price = 0, 0
			return a == b && math.Float64bits(pa) == math.Float64bits(pb)
		}
		var w ticketWindow
		w.push(seq, &in)
		w.push(seq+1, &heldTicket{status: heldDone, participant: "neighbour"})
		got, ok := w.get(seq)
		if !ok || !same(got, in) {
			t.Fatalf("held %+v as seq %d, got %+v (%v)", in, seq, got, ok)
		}
		w.all(func(s uint64, t2 heldTicket) bool {
			if s != seq || !same(t2, in) {
				t.Fatalf("the window lists seq %d as %+v first, want seq %d as %+v", s, t2, seq, in)
			}
			return false
		})
		w.pop()
		if w.has(seq) || w.len() != 1 || len(w.side) != 0 {
			t.Fatalf("seq %d retired, but has %v, len %d, side %v", seq, w.has(seq), w.len(), w.side)
		}
		if n, ok := w.get(seq + 1); !ok || n.participant != "neighbour" {
			t.Fatalf("the neighbour reads %+v (%v) after the retirement", n, ok)
		}
	})
}
