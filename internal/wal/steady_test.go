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
// sample: 10 % over the most it measures, 5.98-6.23 MB, with the event-log
// window an index into the WAL, the audit window a ring and the ticket window
// holding flat tickets (10.1-10.4 MB when the window held each event's JSON,
// 11.6-11.9 MB when the tickets were Tickets with their IDs).
const steadyHeapCeiling = 685 << 20 / 100 // 6.85 MB

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
	dir := t.TempDir()
	p, e, w, _, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: dir, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer e.Stop()
	checkpointed := 0
	checkpoint := func() {
		t.Helper()
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
		if err := PruneAfterSnapshot(dir, w, true); err != nil {
			t.Fatal(err)
		}
		checkpointed = snap.TakenAtSeq
	}

	const buyers, batch, half = 8, 50, 25000
	for b := 0; b < buyers; b++ {
		submitOp(e, op{kind: "register", name: fmt.Sprintf("b%d", b), funds: 1e9})
	}
	submitOp(e, op{kind: "share", name: "s1", ds: "s1/d0", rows: 40})
	e.TriggerEpoch()

	type sample struct {
		engine.Stats // the held windows, counters and open requests
		heap         uint64
	}
	run := func(n int) sample {
		t.Helper()
		for i := 0; i < n; i += batch {
			for j := 0; j < batch; j++ {
				submitOp(e, op{kind: "request", name: fmt.Sprintf("b%d", (i+j)%buyers), offer: 150, cols: []string{"a", "b"}})
			}
			e.TriggerEpoch()
			if e.Log().LastSeq()-checkpointed >= retain.Sizes().Checkpoint {
				checkpoint()
			}
		}
		checkpoint()
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
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return sample{Stats: st, heap: ms.HeapAlloc}
	}
	at25 := run(half)
	at50 := run(half)
	if st := e.Stats(); st.Matched != 2*half || int(st.Matched) != p.Arbiter.Settled() || !e.Settlements().Cut().Conserved() {
		t.Fatalf("matched %d of %d (arbiter %d)", st.Matched, 2*half, p.Arbiter.Settled())
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
