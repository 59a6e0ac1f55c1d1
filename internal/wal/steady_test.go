//go:build !race

package wal

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/retain"
)

// steadyHeapCeiling bounds TestSteadyStateIsBounded's live heap at either
// sample: 10 % over the most it measures, 2.26-2.30 MB, with the event-log
// window an index into the WAL and the ticket and audit windows packed
// records (5.98-6.23 MB when they held a struct per ticket and per audit
// entry, 10.1-10.4 MB when the event window also held each event's JSON,
// 11.6-11.9 MB when the tickets were Tickets with their IDs).
const steadyHeapCeiling = 253 << 20 / 100 // 2.53 MB

// maxHeldBytesPerEvent is what the durable event log may hold per event in
// its window: one index entry, the record itself being in the WAL. Holding
// the JSON took ~250 B.
const maxHeldBytesPerEvent = 16

// TestSteadyStateIsBounded pushes 50,000 settling requests through a
// WAL-backed market that checkpoints the way a durable gateway does — every
// retain.Windows.Checkpoint events, and once more before each sample, as a
// drain would — at the default window sizes, and compares the state held at
// 25,000 and at 50,000: the event-log tail, tickets, history, audit chain
// and open requests must not have grown at all (the tail's bytes by at most a
// chunk of them, at most maxHeldBytesPerEvent each), and the live heap (after
// a forced GC) must stay under steadyHeapCeiling and grow by at most 25 B per
// settlement: nothing settling
// keeps grows with the sales — the settlement book lives in its archive once
// checkpointed, and licenses are one holder per exclusive dataset, none for
// the open one sold here. The run measures -8 to 10 B. Before the windows
// existed the same run grew by ~3.3 KiB per settlement (event log, audit
// chain, closed requests, history, tickets), before the book archive by ~465
// B (~333 B of it the book), and before the holders replaced the grant log by
// ~105 B (~87 B of it grants). Not run under the race detector, which
// distorts both the timing and the heap.
func TestSteadyStateIsBounded(t *testing.T) {
	m := newSteadyMarket(t)
	e, w := m.e, m.w
	const half = 25000
	type sample struct {
		engine.Stats // the held windows, counters and open requests
		heap         uint64
	}
	run := func(n int) sample {
		t.Helper()
		m.settle(n)
		if held := e.Settlements().HeldBytes(); held != 0 {
			t.Fatalf("the book still holds %d bytes of settlements after a checkpoint", held)
		}
		st := e.Stats()
		if st.PersistErr != "" {
			t.Fatalf("log trouble: %s", st.PersistErr)
		}
		// The window's 16k events of ~300 B records span two or three 4 MiB
		// segments, and the Log holds one file open to read them (the
		// checkpoints prune below the window, so it keeps none).
		if segs, files := w.readState(); segs > 3 || files > 1 {
			t.Fatalf("the WAL lists %d segments and holds %d files open for a window of %d events", segs, files, st.EventsHeld)
		}
		return sample{Stats: st, heap: liveHeap()}
	}
	at25 := run(half)
	at50 := run(half)
	if st := e.Stats(); st.Matched != 2*half || int(st.Matched) != m.p.Arbiter.Settled() || !e.Settlements().Cut().Conserved() {
		t.Fatalf("matched %d of %d (arbiter %d)", st.Matched, 2*half, m.p.Arbiter.Settled())
	}
	for _, s := range []sample{at25, at50} {
		t.Logf("at %d: events=%d (%d B) tickets=%d history=%d audit=%d held, open=%d, heap=%.2f MB", s.Matched,
			s.EventsHeld, s.EventsHeldBytes, s.TicketsHeld, s.HistoryHeld, s.AuditHeld, s.OpenRequests, float64(s.heap)/(1<<20))
	}
	if at25.TicketsHeld != at50.TicketsHeld || at25.HistoryHeld != at50.HistoryHeld ||
		at25.AuditHeld != at50.AuditHeld || at25.OpenRequests != 0 || at50.OpenRequests != 0 {
		t.Fatalf("held state grew between 25k and 50k:\n%+v\n%+v", at25, at50)
	}
	// The log drops whole 1024-event chunks, so the tail is equal up to the
	// phase of the newest chunk.
	tail, chunk := retain.Sizes().EventTail, retain.Sizes().EventChunk
	for _, s := range []sample{at25, at50} {
		if s.EventsHeld < tail || s.EventsHeld >= tail+chunk {
			t.Fatalf("log holds %d events, want [%d, %d)", s.EventsHeld, tail, tail+chunk)
		}
	}
	// And so are the bytes it holds them as, up to a chunk of them: an index
	// entry each.
	for _, s := range []sample{at25, at50} {
		if per := s.EventsHeldBytes / s.EventsHeld; per > maxHeldBytesPerEvent {
			t.Fatalf("log holds %d B per event at %d settlements, want at most %d", per, s.Matched, maxHeldBytesPerEvent)
		}
	}
	chunkBytes := chunk * at25.EventsHeldBytes / at25.EventsHeld
	if d := at50.EventsHeldBytes - at25.EventsHeldBytes; d > chunkBytes || -d > chunkBytes {
		t.Fatalf("held event bytes moved %d B between 25k and 50k, more than a chunk (%d B)", d, chunkBytes)
	}
	if at50.TicketsRetired-at25.TicketsRetired != half || at50.ReadBackEvents != 0 {
		t.Fatalf("retired %d tickets over the second half (want %d), read back %d events (want 0: every live cursor stays in the tail)",
			at50.TicketsRetired-at25.TicketsRetired, half, at50.ReadBackEvents)
	}
	for _, s := range []sample{at25, at50} {
		if s.heap > steadyHeapCeiling {
			t.Fatalf("live heap %.1f MB at %d settlements, over the %.1f MB ceiling", float64(s.heap)/(1<<20),
				s.Matched, float64(steadyHeapCeiling)/(1<<20))
		}
	}
	grown := int64(at50.heap) - int64(at25.heap)
	t.Logf("live heap grew %.0f B per settlement", float64(grown)/half)
	if grown > half*25 {
		t.Fatalf("live heap grew %.1f MB over 25k settlements (%.0f B each), want at most 25 B each",
			float64(grown)/(1<<20), float64(grown)/half)
	}
}

// steadyMarket is TestSteadyStateIsBounded's market: a WAL-backed one at the
// windows in force, with eight funded buyers and one seller's dataset that
// every request buys.
type steadyMarket struct {
	t            *testing.T
	dir          string
	p            *core.Platform
	e            *engine.Engine
	w            *Log
	checkpointed int
}

func newSteadyMarket(t *testing.T) *steadyMarket {
	t.Helper()
	m := &steadyMarket{t: t, dir: t.TempDir()}
	var err error
	m.p, m.e, m.w, _, err = Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: m.dir, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.close)
	for b := 0; b < steadyBuyers; b++ {
		submitOp(m.e, op{kind: "register", name: fmt.Sprintf("b%d", b), funds: 1e9})
	}
	submitOp(m.e, op{kind: "share", name: "s1", ds: "s1/d0", rows: 40})
	m.e.TriggerEpoch()
	return m
}

const steadyBuyers = 8

// close stops the market and lets it go; it runs at the test's end if not
// before.
func (m *steadyMarket) close() {
	if m.w != nil {
		m.e.Stop()
		m.w.Close()
		m.p, m.e, m.w = nil, nil, nil
	}
}

// checkpoint snapshots the market and prunes its WAL, as a durable gateway's
// background checkpoint does.
func (m *steadyMarket) checkpoint() {
	m.t.Helper()
	snap, err := m.e.Snapshot()
	if err != nil {
		m.t.Fatal(err)
	}
	if _, err := WriteSnapshot(m.dir, snap); err != nil {
		m.t.Fatal(err)
	}
	if err := PruneAfterSnapshot(m.dir, m.w, true); err != nil {
		m.t.Fatal(err)
	}
	m.checkpointed = snap.TakenAtSeq
}

// settle pushes n settling requests through the market, 50 an epoch,
// checkpointing every retain.Windows.Checkpoint events and once more at the
// end, as a drain would.
func (m *steadyMarket) settle(n int) {
	m.t.Helper()
	const batch = 50
	for i := 0; i < n; i += batch {
		for j := 0; j < batch; j++ {
			submitOp(m.e, op{kind: "request", name: fmt.Sprintf("b%d", (i+j)%steadyBuyers), offer: 150, cols: []string{"a", "b"}})
		}
		m.e.TriggerEpoch()
		if m.e.Log().LastSeq()-m.checkpointed >= retain.Sizes().Checkpoint {
			m.checkpoint()
		}
	}
	m.checkpoint()
}

// liveHeap is the heap in use after a forced GC.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// windowBytesPerEntry runs TestSteadyStateIsBounded's script for n
// settlements twice, at the windows in force and with one window shrunk to a
// single entry by shrink, and returns the live heap the window's other
// entries cost each: the difference between the two, over the window's size
// less one. Everything else the two markets hold is the same.
func windowBytesPerEntry(t *testing.T, n, window int, shrink func(*retain.Windows)) float64 {
	t.Helper()
	heap := func() uint64 {
		m := newSteadyMarket(t)
		m.settle(n)
		h := liveHeap()
		m.close()
		return h
	}
	full := heap()
	restore := retain.Shrink(shrink)
	one := heap()
	restore()
	per := (float64(full) - float64(one)) / float64(window-1)
	t.Logf("live heap %.2f MB with the window full, %.2f MB with one entry: %.1f B per entry",
		float64(full)/(1<<20), float64(one)/(1<<20), per)
	return per
}

// TestTicketBytesPerEntry pins what a held terminal ticket costs, its share
// of the window's index included, at most 64 B. A settled request's ticket
// packs into ~36 B. A ticket with its own 96 B struct, strings and map slot
// cost ~186 B.
func TestTicketBytesPerEntry(t *testing.T) {
	w := retain.Sizes().Tickets
	if per := windowBytesPerEntry(t, w+w/4, w, func(s *retain.Windows) { s.Tickets = 1 }); per > 64 {
		t.Fatalf("a held ticket costs %.1f B, want at most 64", per)
	}
}

// TestAuditBytesPerEntry pins what an entry of the ledger's audit chain
// costs, at most 112 B: its hash as 32 bytes and its fields packed. A 112 B
// struct with a 64-character hex hash and the previous entry's cost ~229 B.
func TestAuditBytesPerEntry(t *testing.T) {
	w := retain.Sizes().Audit
	if per := windowBytesPerEntry(t, w, w, func(s *retain.Windows) { s.Audit = 1 }); per > 112 {
		t.Fatalf("an audit entry costs %.1f B, want at most 112", per)
	}
}
