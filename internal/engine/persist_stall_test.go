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

func (g *gatedPersister) PersistRecord(int, EventKind, []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}

// TestEventLogReadersNotBlockedByPersist is the regression for moving the
// persister call (and its fsync) out from under the event-log mutex: while
// an append is blocked inside Persist, Since and Len must return promptly —
// and must NOT yet show the in-flight event (write-ahead visibility).
// Before the fix this test times out: Persist ran under the reader lock.
func TestEventLogReadersNotBlockedByPersist(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventEpochStart, Epoch: 1}) // pre-persister event
	g := &gatedPersister{entered: make(chan struct{}), release: make(chan struct{})}
	l.SetPersister(g)

	appended := make(chan int)
	go func() { appended <- l.Append(Event{Kind: EventEpochEnd, Epoch: 1}) }()
	<-g.entered // the append is now stuck inside its "fsync"

	read := make(chan []Event, 1)
	go func() { read <- l.Since(0) }()
	select {
	case evs := <-read:
		if len(evs) != 1 || evs[0].Seq != 1 {
			t.Fatalf("in-flight event leaked to a reader before persist: %+v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Since blocked behind an in-flight persist (fsync under the reader lock)")
	}
	if n := l.LastSeq(); n != 1 {
		t.Fatalf("Len = %d during in-flight persist, want 1", n)
	}

	close(g.release)
	if seq := <-appended; seq != 2 {
		t.Fatalf("append returned seq %d, want 2", seq)
	}
	if persisted, perr := l.Persisted(); persisted != 2 || perr != nil {
		t.Fatalf("persisted = %d, %v; want 2, nil", persisted, perr)
	}
	if evs := l.Since(0); len(evs) != 2 {
		t.Fatalf("event lost after release: %d", len(evs))
	}
}

// slowPersister sleeps per event, so under -race concurrent readers overlap
// many in-flight persists.
type slowPersister struct{ delay time.Duration }

func (s slowPersister) PersistRecord(int, EventKind, []byte) error {
	time.Sleep(s.delay)
	return nil
}

// TestEventLogConcurrentReadersDuringPersist is the -race companion: two
// appenders crossing a slow persister while poll- and wait-based readers
// consume the log. It pins down the two-phase Append (seq assignment,
// persist outside the lock, publish): no lost or reordered events, no
// event visible before its persist completed.
func TestEventLogConcurrentReadersDuringPersist(t *testing.T) {
	const total = 64
	l := NewEventLog()
	l.SetPersister(slowPersister{delay: time.Millisecond})

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
