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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retain"
)

// memPersister is an in-memory write-ahead store that can read back — the
// contract of wal.Log without the disk. Records go into segments of segBytes
// (0: one segment), each extent counted from its segment's start; prune drops
// a prefix from ReadBack, while the extents the log has not released stay
// readable, as a pruned segment does while wal.Log keeps it open; and reading
// a released extent fails, as it may from wal.Log, so a log that reads one
// and does not go on from ReadBack shows.
type memPersister struct {
	mu       sync.Mutex
	first    int // seq of events[0]
	events   []Event
	fail     error // returned by ReadBack when set
	lose     error // returned by ReadRecords when set
	segBytes int
	segs     []memSegment
	sizes    map[int]int // record length by seq
	released int
}

// memSegment is one of memPersister's segments: records from seq first on.
type memSegment struct {
	first int
	data  []byte
}

func (m *memPersister) PersistRecord(seq int, _ EventKind, rec []byte) (Extent, error) {
	var ev Event
	if err := json.Unmarshal(rec, &ev); err != nil {
		return Extent{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.events) == 0 {
		m.first = ev.Seq
	}
	m.events = append(m.events, ev)
	if n := len(m.segs); n == 0 || m.segBytes > 0 && len(m.segs[n-1].data) >= m.segBytes {
		m.segs = append(m.segs, memSegment{first: seq})
	}
	if m.sizes == nil {
		m.sizes = map[int]int{}
	}
	seg := &m.segs[len(m.segs)-1]
	ext := Extent{At: int64(len(seg.data)), Size: uint32(len(rec))}
	seg.data = append(seg.data, rec...)
	m.sizes[seq] = len(rec)
	return ext, nil
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

func (m *memPersister) ReadRecords(seq int, at, end int64, fn func([]byte) error) error {
	m.mu.Lock()
	if m.lose != nil || seq <= m.released {
		m.mu.Unlock()
		return fmt.Errorf("read of seq %d: released up to %d (%v)", seq, m.released, m.lose)
	}
	i := len(m.segs) - 1
	for i > 0 && m.segs[i].first > seq {
		i--
	}
	data := m.segs[i].data
	if end > int64(len(data)) {
		m.mu.Unlock()
		return fmt.Errorf("extent [%d, %d) past a %d-byte segment", at, end, len(data))
	}
	data = slices.Clone(data[at:end])
	var recs [][]byte
	for off, s := 0, seq; off < len(data); s++ {
		n := m.sizes[s]
		if n == 0 || off+n > len(data) {
			m.mu.Unlock()
			return fmt.Errorf("no record of seq %d at %d", s, at+int64(off))
		}
		recs, off = append(recs, data[off:off+n]), off+n
	}
	m.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

func (m *memPersister) Release(upto int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.released = max(m.released, upto)
}

// prune drops every stored event with Seq <= upto from ReadBack.
func (m *memPersister) prune(upto int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.events) > 0 && m.events[0].Seq <= upto {
		m.events = m.events[1:]
		m.first++
	}
}

// writeOnly hides a persister's reads.
type writeOnly struct{ p Persister }

func (w writeOnly) PersistRecord(seq int, kind EventKind, rec []byte) (Extent, error) {
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
// every cursor in [0, head] — from the window's positional reads, from the
// persister, or stitched across both — except that cursors inside a pruned
// prefix resume at the first retained seq, and SinceJSON must be byte for
// byte the reference's. Two WaitAfter followers, one of them slow enough to
// fall out of the tail, must see every seq exactly once, in order. The arms
// vary the store under the window: one segment; segments that rotate inside
// the window (so runs of adjacent records break there); pruning that reaches
// into the window (its records stay readable until released, as a pruned
// wal segment does while kept open); and a store that wedges mid-window, as a
// closed wal.Log does (the rest of the log is held in memory, beside what was
// left in the store, which still reads). Reading an extent the log has
// released fails the read: a follower the window moved past mid-read must go
// on from ReadBack, or the oracle sees the gap.
func TestEventLogTailOracle(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 64, 16 })()
	arms := []struct {
		name        string
		segBytes    int  // the store's segment size; 0 for one segment
		pruneWindow bool // prune may reach past base, up to the followers
		wedgeAt     int  // the seq from which persisting fails; 0 for never
	}{
		{"one-segment", 0, false, 0},
		{"rotation", 700, false, 0},
		{"prune-window", 700, true, 0},
		{"wedge", 700, true, 120},
	}
	for _, seed := range tailOracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					store := &memPersister{segBytes: arm.segBytes}
					tail, full := NewEventLog(), NewEventLog()
					if arm.wedgeAt > 0 {
						tail.SetPersister(&flakyPersister{memPersister: store, failAt: arm.wedgeAt})
					} else {
						tail.SetPersister(store)
					}

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
					defer func() { tail.Close(); wg.Wait() }() // a failed check ends the arm: stop the followers first

					pruned, reached := 0, false // reached: a prune went past base
					for step := 0; step < 24; step++ {
						for n := rng.Intn(24); n >= 0; n-- {
							ev := Event{Kind: EventEpochStart, Epoch: uint64(step), Note: fmt.Sprint(rng.Int63())}
							ev.At = time.Unix(int64(step), 0)
							if rng.Intn(4) == 0 { // a record longer than its wire form
								ev.Payload = &Payload{License: strings.Repeat("p", rng.Intn(300))}
							}
							tail.Append(ev)
							full.Append(ev)
						}
						head := full.LastSeq()
						// Prune behind a "snapshot": only what no follower still
						// has to read and, but in the prune-window arm, what memory
						// no longer holds (PruneCovered never touches the active
						// segment).
						limit := min(int(followed[0].Load()), int(followed[1].Load()))
						if !arm.pruneWindow {
							limit = min(limit, tail.base)
						}
						if rng.Intn(4) == 0 && limit > pruned {
							if arm.pruneWindow {
								pruned = limit
							} else {
								pruned += rng.Intn(limit - pruned + 1)
							}
							store.prune(pruned)
							reached = reached || pruned > tail.base
						}
						for after := 0; after <= head; after++ {
							// The one-segment arm decodes every cursor's batch
							// (Since) every step; the others, every fifth cursor,
							// and the cold cursors only every fourth step. Cold
							// cursors re-encode what they read back (SinceJSON):
							// every fifth.
							cold, fifth := after < tail.base-2, after%5 == step%5
							if cold && arm.segBytes > 0 && step%4 != 0 {
								continue
							}
							// A cold cursor resumes at the first seq the store
							// still has, or else at the window.
							from := max(after, min(pruned, tail.base))
							if arm.segBytes == 0 || fifth {
								got, want := tail.Since(after), full.Since(from)
								if !sameEvents(got, want, fifth || after-tail.base < 3 && tail.base-after < 3) {
									t.Fatalf("seed %d step %d: Since(%d) with base %d pruned %d: got seqs %v, want %v",
										seed, step, after, tail.base, pruned, seqRange(got), seqRange(want))
								}
							}
							if cold && !fifth {
								continue
							}
							if got, want := tail.SinceJSON(after), full.SinceJSON(from); !bytes.Equal(got, want) {
								t.Fatalf("seed %d step %d: SinceJSON(%d) with base %d pruned %d:\n%s\nwant\n%s",
									seed, step, after, tail.base, pruned, got, want)
							}
						}
						if _, perr := tail.Persisted(); perr != nil {
							continue // wedged: the log drops nothing more
						}
						if held, _, _, _ := tail.Held(); held < min(head, 64) || held >= 64+16 {
							t.Fatalf("seed %d step %d: tail holds %d of %d events", seed, step, held, head)
						}
					}
					tail.Close()
					wg.Wait()
					if _, _, n, err := tail.Held(); n == 0 && !arm.pruneWindow || err != nil { // pruning up to the followers may leave nothing to read back
						t.Fatalf("seed %d: read-back never exercised (%d events, err %v)", seed, n, err)
					}
					if persisted, perr := tail.Persisted(); (arm.wedgeAt > 0) != (perr != nil) || arm.wedgeAt > 0 && persisted != arm.wedgeAt-1 {
						t.Fatalf("seed %d: persisted %d of %d (%v): the arm did not wedge mid-run as intended", seed, persisted, full.LastSeq(), perr)
					}
					if arm.pruneWindow && !reached {
						t.Fatalf("seed %d: pruning never reached into the window", seed)
					}
				})
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
	t.Run("positional read failure", func(t *testing.T) {
		l := NewEventLog()
		store := &memPersister{}
		l.SetPersister(store)
		fill(l, 100)
		store.lose = errors.New("segment gone")
		if evs, got := l.Since(100-held(l)), l.SinceJSON(98); len(evs) != 0 || string(got) != "[]\n" {
			t.Fatalf("failed positional reads served %s and %q", seqRange(evs), got)
		}
		if _, _, _, err := l.Held(); err == nil || !strings.Contains(err.Error(), "segment gone") {
			t.Fatalf("positional read failure recorded as %v", err)
		}
		store.lose = nil
		if evs := l.Since(98); len(evs) != 2 || evs[0].Seq != 99 {
			t.Fatalf("after the failure Since(98) served %s", seqRange(evs))
		}
	})
}

// flakyPersister fails Persist from seq failAt on.
type flakyPersister struct {
	*memPersister
	failAt int
}

func (f *flakyPersister) PersistRecord(seq int, kind EventKind, rec []byte) (Extent, error) {
	if seq >= f.failAt {
		return Extent{}, fmt.Errorf("injected failure at seq %d", seq)
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

// readGate parks the first positional read it sees until released.
type readGate struct {
	*memPersister
	entered, release chan struct{}
	once             sync.Once
}

func (g *readGate) ReadRecords(seq int, at, end int64, fn func([]byte) error) error {
	g.once.Do(func() {
		g.entered <- struct{}{}
		<-g.release
	})
	return g.memPersister.ReadRecords(seq, at, end, fn)
}

// TestEventLogReaderOvertakenByTheWindow: a reader that took its view of the
// window before appends dropped part of it, and whose extents the store
// released under it, still serves every event: the failed read tells it the
// window moved on, and it reads the rest back as a colder cursor, with no
// error recorded. The log releases what it drops at once.
func TestEventLogReaderOvertakenByTheWindow(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 8, 4 })()
	gate := &readGate{memPersister: &memPersister{}, entered: make(chan struct{}), release: make(chan struct{})}
	l := NewEventLog()
	l.SetPersister(gate)
	for i := 0; i < 12; i++ {
		l.Append(Event{Kind: EventEpochStart})
	}
	base := l.LastSeq() - held(l)
	got := make(chan []Event)
	go func() { got <- l.Since(base) }()
	<-gate.entered // the reader holds its view, mid-read
	for i := 0; i < 8; i++ {
		l.Append(Event{Kind: EventEpochStart})
	}
	if l.LastSeq()-held(l) <= base {
		t.Fatal("no chunk the reader views was dropped")
	}
	gate.mu.Lock()
	released := gate.released
	gate.mu.Unlock()
	if released != l.LastSeq()-held(l) {
		t.Fatalf("released up to %d with a reader mid-read, the log dropped up to %d", released, l.LastSeq()-held(l))
	}
	close(gate.release)
	// It goes on from a view taken after the appends, so it serves them too.
	evs := <-got
	for i, ev := range evs {
		if ev.Seq != base+1+i {
			t.Fatalf("the overtaken reader got %s, want seqs %d..%d", seqRange(evs), base+1, l.LastSeq())
		}
	}
	if len(evs) != l.LastSeq()-base {
		t.Fatalf("the overtaken reader got %s, want seqs %d..%d", seqRange(evs), base+1, l.LastSeq())
	}
	if _, _, n, err := l.Held(); n == 0 || err != nil {
		t.Fatalf("the overtaken reader read back %d events, error %v", n, err)
	}
}

// TestSinceJSONSizesForWhatItServes: SinceJSON sizes its buffer for the window
// part of what it serves, which the window bounds, not for the cursor's
// distance from the head: a far negative cursor, or a cold one on a log whose
// store pruned all but its newest events, costs what it serves.
func TestSinceJSONSizesForWhatItServes(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 64, 16 })()
	store := &memPersister{}
	l := NewEventLog()
	l.SetPersister(store)
	for i := 0; i < 10000; i++ {
		l.Append(Event{Kind: EventEpochStart, At: time.Unix(int64(i), 0)})
	}
	store.prune(9800)
	want := l.SinceJSON(9800)
	for _, after := range []int{-1 << 40, -1, 0, 9000} {
		var before, done runtime.MemStats
		runtime.ReadMemStats(&before)
		got := l.SinceJSON(after)
		runtime.ReadMemStats(&done)
		if !bytes.Equal(got, want) {
			t.Fatalf("SinceJSON(%d) served %d bytes, want the %d of the retained events", after, len(got), len(want))
		}
		// 200 events of ~90 B, read back and encoded. A buffer sized by the
		// distance from the head would take 2.5 MB for after=0, and for
		// -1<<40 could not be made.
		if n := done.TotalAlloc - before.TotalAlloc; n > 256<<10 {
			t.Fatalf("SinceJSON(%d) allocated %d B for %d B served", after, n, len(got))
		}
	}
}
