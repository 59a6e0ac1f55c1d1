package engine

// The event log keeps a tail in memory and serves older cursors from its
// persister. These tests pin that the switch is invisible: a property test
// drives a trimmed and an untrimmed log with the same appends and compares
// every read, and unit tests pin the cases in which nothing may be dropped.
//
// The fixed seeds keep CI deterministic; EVENTLOG_ORACLE_EXTRA_SEEDS=N adds N
// time-derived seeds (each seed is in its subtest's name). The engine + WAL
// half of the oracle — segment rotation, snapshot pruning, reboot — lives in
// internal/wal (TestEventLogTransparencyOracle).

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retain"
)

// memPersister is an in-memory write-ahead store that can read back, with a
// prunable prefix — the contract of wal.Log without the disk.
type memPersister struct {
	mu     sync.Mutex
	first  int // seq of events[0]
	events []Event
	fail   error // returned by ReadBack when set
}

func (m *memPersister) PersistRecord(seq int, _ EventKind, rec []byte) error {
	var ev Event
	if err := json.Unmarshal(rec, &ev); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.events) == 0 {
		m.first = ev.Seq
	}
	m.events = append(m.events, ev)
	return nil
}

func (m *memPersister) ReadBack(after, upto int) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return nil, m.fail
	}
	lo, hi := max(after+1-m.first, 0), min(upto+1-m.first, len(m.events))
	if lo >= hi {
		return nil, nil
	}
	return append([]Event(nil), m.events[lo:hi]...), nil
}

// prune drops every stored event with Seq <= upto.
func (m *memPersister) prune(upto int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.events) > 0 && m.events[0].Seq <= upto {
		m.events = m.events[1:]
		m.first++
	}
}

// writeOnly hides a persister's ReadBack.
type writeOnly struct{ p Persister }

func (w writeOnly) PersistRecord(seq int, kind EventKind, rec []byte) error {
	return w.p.PersistRecord(seq, kind, rec)
}

func tailOracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 4}
	if v := os.Getenv("EVENTLOG_ORACLE_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad EVENTLOG_ORACLE_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

// TestEventLogTailOracle appends the same random stream to a log with a
// 64-event tail (16-event chunks) over a reading-back persister and to an
// untrimmed in-memory log. After every burst, Since(after) must agree for
// every cursor in [0, head] — from memory, from the persister, or stitched
// across both — except that cursors inside a pruned prefix resume at the
// first retained seq. Two WaitAfter followers, one of them slow enough to
// fall out of the tail, must see every seq exactly once, in order.
func TestEventLogTailOracle(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 64, 16 })()
	for _, seed := range tailOracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := &memPersister{}
			tail, full := NewEventLog(), NewEventLog()
			tail.SetPersister(store)

			var wg sync.WaitGroup
			var followed [2]atomic.Int64 // the followers' cursors: pruning stays behind them
			follow := func(i int, name string, every int) {
				defer wg.Done()
				cursor, polls := 0, 0
				for {
					evs, open := tail.WaitAfter(cursor)
					for _, ev := range evs {
						if ev.Seq != cursor+1 {
							t.Errorf("seed %d: %s follower at %d got seq %d", seed, name, cursor, ev.Seq)
							return
						}
						cursor = ev.Seq
					}
					followed[i].Store(int64(cursor))
					if !open {
						if want := full.LastSeq(); cursor != want {
							t.Errorf("seed %d: %s follower ended at %d, log at %d", seed, name, cursor, want)
						}
						return
					}
					if polls++; every > 0 && polls%every == 0 {
						time.Sleep(time.Millisecond) // fall behind the tail
					}
				}
			}
			wg.Add(2)
			go follow(0, "fast", 0)
			go follow(1, "slow", 3)

			pruned := 0
			for step := 0; step < 24; step++ {
				for n := rng.Intn(24); n >= 0; n-- {
					ev := Event{Kind: EventEpochStart, Epoch: uint64(step), Note: fmt.Sprint(rng.Int63())}
					ev.At = time.Unix(int64(step), 0)
					tail.Append(ev)
					full.Append(ev)
				}
				head := full.LastSeq()
				// Prune behind a "snapshot": only what memory no longer holds
				// (PruneCovered never touches the active segment) and no
				// follower still has to read.
				if limit := min(tail.base, int(followed[0].Load()), int(followed[1].Load())); rng.Intn(4) == 0 && limit > pruned {
					pruned += rng.Intn(limit - pruned + 1)
					store.prune(pruned)
				}
				for after := 0; after <= head; after++ {
					got, want := tail.Since(after), full.Since(max(after, pruned))
					if !sameEvents(got, want, after%5 == step%5 || after-tail.base < 3 && tail.base-after < 3) {
						t.Fatalf("seed %d step %d: Since(%d) with base %d pruned %d: got seqs %v, want %v",
							seed, step, after, tail.base, pruned, seqRange(got), seqRange(want))
					}
				}
				if held, _, _, _ := tail.Held(); held < min(head, 64) || held >= 64+16 {
					t.Fatalf("seed %d step %d: tail holds %d of %d events", seed, step, held, head)
				}
			}
			tail.Close()
			wg.Wait()
			if _, _, n, err := tail.Held(); n == 0 || err != nil {
				t.Fatalf("seed %d: read-back never exercised (%d events, err %v)", seed, n, err)
			}
		})
	}
}

// sameEvents compares two batches: always length, seqs and the random note
// that identifies each event; field by field (reflect.DeepEqual) when deep is
// set — every fifth cursor and the ones around the tail boundary, which keeps
// the every-cursor sweep affordable under the race detector.
func sameEvents(got, want []Event, deep bool) bool {
	if deep {
		return reflect.DeepEqual(got, want)
	}
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Note != want[i].Note {
			return false
		}
	}
	return true
}

func held(l *EventLog) int {
	n, _, _, _ := l.Held()
	return n
}

func seqRange(evs []Event) string {
	if len(evs) == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%d..%d] (%d)", evs[0].Seq, evs[len(evs)-1].Seq, len(evs))
}

// TestEventLogDropsNothingItCannotReadBack: with no persister, with one that
// cannot read back, and once the persister is wedged, the log holds every
// event — exactly the pre-tail behaviour.
func TestEventLogDropsNothingItCannotReadBack(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 8, 8 })()
	fill := func(l *EventLog, n int) {
		for i := 0; i < n; i++ {
			l.Append(Event{Kind: EventEpochStart})
		}
	}
	t.Run("no persister", func(t *testing.T) {
		l := NewEventLog()
		fill(l, 100)
		if held(l) != 100 || len(l.Since(0)) != 100 {
			t.Fatalf("in-memory log holds %d of 100", held(l))
		}
	})
	t.Run("write-only persister", func(t *testing.T) {
		l := NewEventLog()
		l.SetPersister(writeOnly{&memPersister{}})
		fill(l, 100)
		if held(l) != 100 {
			t.Fatalf("log over a write-only persister holds %d of 100", held(l))
		}
	})
	t.Run("wedged persister", func(t *testing.T) {
		l := NewEventLog()
		f := &flakyPersister{memPersister: &memPersister{}, failAt: 41}
		l.SetPersister(f)
		fill(l, 100)
		if _, perr := l.Persisted(); perr == nil {
			t.Fatal("persister never wedged")
		}
		// Chunks dropped before the wedge stay dropped (they are durable and
		// readable); nothing is dropped after it.
		before := held(l)
		fill(l, 100)
		if held(l) != before+100 {
			t.Fatalf("wedged log dropped events: held %d -> %d after 100 appends", before, held(l))
		}
		evs := l.Since(0)
		for i, ev := range evs {
			if ev.Seq != i+1 {
				t.Fatalf("event %d has seq %d", i, ev.Seq)
			}
		}
		if len(evs) != 200 {
			t.Fatalf("read %d events, want 200", len(evs))
		}
	})
	t.Run("read-back failure", func(t *testing.T) {
		l := NewEventLog()
		store := &memPersister{}
		l.SetPersister(store)
		fill(l, 100)
		store.fail = errors.New("disk on fire")
		evs := l.Since(0)
		if len(evs) != held(l) || evs[0].Seq != 100-held(l)+1 {
			t.Fatalf("failed read-back served %s, want the %d held events", seqRange(evs), held(l))
		}
		if _, _, _, err := l.Held(); err == nil {
			t.Fatal("read-back failure not recorded")
		}
	})
}

// flakyPersister fails Persist from seq failAt on.
type flakyPersister struct {
	*memPersister
	failAt int
}

func (f *flakyPersister) PersistRecord(seq int, kind EventKind, rec []byte) error {
	if seq >= f.failAt {
		return fmt.Errorf("injected failure at seq %d", seq)
	}
	return f.memPersister.PersistRecord(seq, kind, rec)
}

// TestEventLogCursorPastHead: a cursor beyond the head — a client's typo, or
// one that outlived an unsynced tail lost to a reboot — reads as empty and
// leaves the log usable. It used to index past a partly filled last chunk and
// panic with the log's mutex held, wedging every later Append and reader.
func TestEventLogCursorPastHead(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 8, 4 })()
	for _, tc := range []struct {
		name    string
		durable bool
		n       int
	}{
		{"partly filled last chunk", false, 5},
		{"full last chunk", false, 8},
		{"empty log", false, 0},
		{"trimmed, partly filled last chunk", true, 21},
		{"trimmed, full last chunk", true, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewEventLog()
			if tc.durable {
				l.SetPersister(&memPersister{})
			}
			for i := 0; i < tc.n; i++ {
				l.Append(Event{Kind: EventEpochStart})
			}
			if tc.durable == (held(l) == tc.n) {
				t.Fatalf("log holds %d of %d events", held(l), tc.n)
			}
			for _, k := range []int{0, 1, 2, 3, 4, 5, 100} {
				if evs := l.Since(tc.n + k); len(evs) != 0 {
					t.Fatalf("Since(head+%d) returned %s", k, seqRange(evs))
				}
			}
			// The log still works: appends land, a waiter parked past the head
			// is woken by the append that reaches it, and Close releases one
			// still ahead of the head with nothing.
			got := make(chan []Event)
			go func() { evs, _ := l.WaitAfter(tc.n + 1); got <- evs }()
			l.Append(Event{Kind: EventEpochStart})
			if seq := l.Append(Event{Kind: EventEpochEnd}); seq != tc.n+2 {
				t.Fatalf("append after the stray reads got seq %d, want %d", seq, tc.n+2)
			}
			if evs := <-got; len(evs) != 1 || evs[0].Seq != tc.n+2 {
				t.Fatalf("waiter past the head woke with %s, want seq %d", seqRange(evs), tc.n+2)
			}
			go func() { evs, open := l.WaitAfter(tc.n + 7); _ = open; got <- evs }()
			time.Sleep(time.Millisecond)
			l.Close()
			if evs := <-got; len(evs) != 0 {
				t.Fatalf("closed WaitAfter(head+5) returned %s", seqRange(evs))
			}
			if evs, open := l.WaitAfter(tc.n + 3); open || len(evs) != 0 {
				t.Fatalf("WaitAfter past the head of a closed log: %s, open=%v", seqRange(evs), open)
			}
			if evs := l.Since(tc.n); len(evs) != 2 {
				t.Fatalf("Since(%d) after close returned %s, want the 2 new events", tc.n, seqRange(evs))
			}
		})
	}
}
