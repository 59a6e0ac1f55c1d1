package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// gatedPersister blocks inside Persist until released — a stand-in for a
// slow fsync under -fsync always.
type gatedPersister struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gatedPersister) PersistRecord(int, EventKind, []byte) (Extent, error) {
	g.entered <- struct{}{}
	<-g.release
	return Extent{}, nil
}

// gatedStore is a gatedPersister in front of a store the log leaves its
// records in and reads them back from positionally.
type gatedStore struct {
	*memPersister
	gate *gatedPersister
}

func (g gatedStore) PersistRecord(seq int, kind EventKind, rec []byte) (Extent, error) {
	g.gate.PersistRecord(seq, kind, rec)
	return g.memPersister.PersistRecord(seq, kind, rec)
}

// TestEventLogReadersNotBlockedByPersist is the regression for moving the
// persister call (and its fsync) out from under the event-log mutex: while
// an append is blocked inside Persist, Since and Len must return promptly —
// and must NOT yet show the in-flight event (write-ahead visibility). The
// store arm reads the events the persister holds back positionally meanwhile.
// Before the fix this test times out: Persist ran under the reader lock.
func TestEventLogReadersNotBlockedByPersist(t *testing.T) {
	for _, store := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[store], func(t *testing.T) {
			l := NewEventLog()
			l.Append(Event{Kind: EventEpochStart, Epoch: 1}) // pre-persister event
			g := &gatedPersister{entered: make(chan struct{}), release: make(chan struct{})}
			if store {
				l.SetPersister(gatedStore{&memPersister{}, g})
			} else {
				l.SetPersister(g)
			}
			appended := make(chan int)
			appendThroughGate := func(ev Event) {
				go func() { appended <- l.Append(ev) }()
				<-g.entered // the append is now stuck inside its "fsync"
			}
			appendThroughGate(Event{Kind: EventRequestUnmet, Epoch: 1})
			g.release <- struct{}{}
			<-appended
			appendThroughGate(Event{Kind: EventEpochEnd, Epoch: 1})

			read := make(chan []Event, 1)
			go func() { read <- l.Since(0) }()
			select {
			case evs := <-read:
				if len(evs) != 2 || evs[1].Seq != 2 || evs[1].Kind != EventRequestUnmet {
					t.Fatalf("in-flight event leaked to a reader before persist, or a persisted one is missing: %+v", evs)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Since blocked behind an in-flight persist (fsync under the reader lock)")
			}
			if n := l.LastSeq(); n != 2 {
				t.Fatalf("Len = %d during in-flight persist, want 2", n)
			}

			close(g.release)
			if seq := <-appended; seq != 3 {
				t.Fatalf("append returned seq %d, want 3", seq)
			}
			if persisted, perr := l.Persisted(); persisted != 3 || perr != nil {
				t.Fatalf("persisted = %d, %v; want 3, nil", persisted, perr)
			}
			if evs := l.Since(0); len(evs) != 3 {
				t.Fatalf("event lost after release: %d", len(evs))
			}
		})
	}
}

// slowPersister sleeps per event, so under -race concurrent readers overlap
// many in-flight persists.
type slowPersister struct{ delay time.Duration }

func (s slowPersister) PersistRecord(int, EventKind, []byte) (Extent, error) {
	time.Sleep(s.delay)
	return Extent{}, nil
}

// slowStore is a slowPersister in front of a store the log reads back from
// positionally.
type slowStore struct {
	*memPersister
	slow slowPersister
}

func (s slowStore) PersistRecord(seq int, kind EventKind, rec []byte) (Extent, error) {
	s.slow.PersistRecord(seq, kind, rec)
	return s.memPersister.PersistRecord(seq, kind, rec)
}

// TestEventLogConcurrentReadersDuringPersist is the -race companion: two
// appenders crossing a slow persister while poll- and wait-based readers
// consume the log, the store arm reading what it persisted back positionally. It pins down the two-phase Append (seq assignment,
// persist outside the lock, publish): no lost or reordered events, no
// event visible before its persist completed.
func TestEventLogConcurrentReadersDuringPersist(t *testing.T) {
	for _, store := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[store], func(t *testing.T) {
			slow := slowPersister{delay: time.Millisecond}
			if store {
				concurrentReadersDuringPersist(t, slowStore{&memPersister{}, slow})
			} else {
				concurrentReadersDuringPersist(t, slow)
			}
		})
	}
}

func concurrentReadersDuringPersist(t *testing.T, p Persister) {
	const total = 64
	l := NewEventLog()
	l.SetPersister(p)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/2; i++ {
				l.Append(Event{Kind: EventEpochStart, Note: "clean"})
			}
		}()
	}
	readers := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(poll bool) {
			cursor := 0
			for cursor < total {
				var evs []Event
				if poll {
					evs = l.Since(cursor)
				} else {
					evs, _ = l.WaitAfter(cursor)
				}
				for _, ev := range evs {
					// Write-ahead visibility: anything a reader can see is
					// already durable.
					if persisted, _ := l.Persisted(); ev.Seq > persisted {
						readers <- errors.New("event visible before persist")
						return
					}
				}
				if len(evs) > 0 {
					cursor = evs[len(evs)-1].Seq
				}
			}
			readers <- nil
		}(r%2 == 0)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-readers; err != nil {
			t.Fatal("reader observed an event before its persist completed")
		}
	}
	evs := l.Since(0)
	if len(evs) != total {
		t.Fatalf("log has %d events, want %d", len(evs), total)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if persisted, perr := l.Persisted(); persisted != total || perr != nil {
		t.Fatalf("persisted = %d, %v; want %d, nil", persisted, perr, total)
	}
}
