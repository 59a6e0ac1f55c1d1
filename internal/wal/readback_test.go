package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/retain"
)

// persistN appends events with seqs first..last to w.
func persistN(t *testing.T, w *Log, first, last int) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		ev := engine.Event{Seq: seq, Kind: engine.EventRequestUnmet, Note: fmt.Sprintf("event %d", seq)}
		if err := w.Persist(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRange asserts a ReadBack result is exactly the seqs want[0]..want[1].
func checkRange(t *testing.T, got []engine.Event, first, last int, what string) {
	t.Helper()
	if last < first {
		if len(got) != 0 {
			t.Fatalf("%s: got %d events from seq %d, want none", what, len(got), got[0].Seq)
		}
		return
	}
	if len(got) != last-first+1 {
		t.Fatalf("%s: got %d events, want seqs %d..%d", what, len(got), first, last)
	}
	for i, ev := range got {
		if ev.Seq != first+i || ev.Note != fmt.Sprintf("event %d", ev.Seq) {
			t.Fatalf("%s: event %d is %+v, want seq %d", what, i, ev, first+i)
		}
	}
}

// TestReadBackRanges reads every (after, upto] window back out of a log that
// spans many sealed segments and a partly filled active one, then again once
// its prefix is pruned (the result resumes at the first retained seq) and
// after the log is closed.
func TestReadBackRanges(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	persistN(t, w, 1, n)
	segs, _ := segmentFiles(dir)
	if len(segs) < 6 {
		t.Fatalf("log too small to span segments: %v", segs)
	}
	for after := 0; after <= n; after += 7 {
		for upto := after; upto <= n+5; upto += 11 {
			got, err := w.ReadBack(after, upto)
			if err != nil {
				t.Fatal(err)
			}
			checkRange(t, got, after+1, min(upto, n), fmt.Sprintf("ReadBack(%d, %d)", after, upto))
		}
	}

	// Prune behind a watermark in the middle: reads that start in the pruned
	// prefix resume at the first retained seq, later ones are unaffected.
	removed, err := w.PruneCovered(60)
	if err != nil || removed == 0 {
		t.Fatalf("prune removed %d segments: %v", removed, err)
	}
	kept, _ := segmentFiles(dir)
	first := segmentFirstSeq(kept[0])
	if first <= 1 || first > 61 {
		t.Fatalf("first retained seq %d after pruning to 60", first)
	}
	for _, after := range []int{0, first - 2, first - 1, first, 90} {
		got, err := w.ReadBack(after, n)
		if err != nil {
			t.Fatal(err)
		}
		checkRange(t, got, max(after+1, first), n, fmt.Sprintf("ReadBack(%d, %d) after prune", after, n))
	}
	got, err := w.ReadBack(0, first-1)
	if err != nil || len(got) != 0 {
		t.Fatalf("fully pruned range returned %d events (%v)", len(got), err)
	}

	persistN(t, w, n+1, n+10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = w.ReadBack(100, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	checkRange(t, got, 101, n+10, "ReadBack on a closed log")
}

// TestReadBackSurvivesPruneUnderScan: a segment that disappears between the
// directory listing and its read — PruneCovered racing a cold read — is
// skipped, and whatever was collected before the hole is discarded, so the
// result is still one contiguous run starting at the first retained seq.
func TestReadBackSurvivesPruneUnderScan(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	persistN(t, w, 1, 120)
	segs, _ := segmentFiles(dir)

	// The scanner itself: segment 1 vanishes after the listing.
	if err := os.Remove(filepath.Join(dir, segs[1])); err != nil {
		t.Fatal(err)
	}
	var runs [][2]int
	err = scanSegments(dir, segs, "", 0, true, 0, func(_ int, evs []engine.Event, _, _ int) (bool, error) {
		if len(evs) > 0 {
			runs = append(runs, [2]int{evs[0].Seq, evs[len(evs)-1].Seq})
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 3 || runs[0][0] != 1 || runs[1][0] != segmentFirstSeq(segs[2]) || runs[len(runs)-1][1] != 120 {
		t.Fatalf("scan over a missing segment visited %v", runs)
	}
	if err := scanSegments(dir, segs, "", 0, false, 0, func(int, []engine.Event, int, int) (bool, error) {
		return true, nil
	}); err == nil {
		t.Fatal("recovery scan must fail on a missing segment, not skip it")
	}

	// ReadBack's accumulator across such a hole: the run before it is
	// dropped, the range limits still apply.
	run := func(first, last int) []engine.Event {
		var evs []engine.Event
		for seq := first; seq <= last; seq++ {
			evs = append(evs, engine.Event{Seq: seq, Note: fmt.Sprintf("event %d", seq)})
		}
		return evs
	}
	var out []engine.Event
	for _, r := range [][2]int{{1, 8}, {9, 16}, {25, 32}, {33, 40}} {
		out = appendRange(out, run(r[0], r[1]), 4, 36)
	}
	checkRange(t, out, 25, 36, "appendRange across a vanished segment")
}

// TestScanStopsItsReader: the scanner decodes one segment ahead on a goroutine
// of its own; a scan that ends early — visit has what it wanted, or failed —
// must not leave that goroutine parked on the segment nobody will take.
func TestScanStopsItsReader(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	persistN(t, w, 1, 120)
	segs, _ := segmentFiles(dir)
	before := runtime.NumGoroutine()
	boom := errors.New("visit failed")
	for i := 0; i < 50; i++ {
		want := []error{nil, boom}[i%2]
		visited := 0
		err := scanSegments(dir, segs, "", 0, false, 0, func(int, []engine.Event, int, int) (bool, error) {
			visited++
			return false, want
		})
		if err != want || visited != 1 {
			t.Fatalf("early stop: visited %d segments, err %v, want 1 and %v", visited, err, want)
		}
	}
	// The last reader closes its channel a moment before it is gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 50 early-stopped scans, %d after", before, runtime.NumGoroutine())
		}
	}
}

// gatedLog is a WAL whose ReadBack parks until released — a cold read frozen
// mid-flight, as if the disk were slow.
type gatedLog struct {
	*Log
	entered chan struct{}
	release chan struct{}
}

func (g *gatedLog) ReadBack(after, upto int) ([]engine.Event, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Log.ReadBack(after, upto)
}

// coldEngine builds a WAL-backed engine with a 16-event log tail and drives
// the crash/replay script through it, so most of its log is on disk only.
func coldEngine(t *testing.T, wrap func(*Log) engine.Persister) (*engine.Engine, *Log) {
	t.Helper()
	t.Cleanup(retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 16, 16 }))
	w, err := Open(Options{Dir: t.TempDir(), Policy: SyncEpoch, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: wrap(w)})
	driveAll(t, e, script())
	if st := e.Stats(); st.EventsHeld >= st.Events {
		t.Fatalf("nothing left memory: %d of %d events held", st.EventsHeld, st.Events)
	}
	return e, w
}

// contiguousFrom asserts evs is the gap-free run first, first+1, ….
func contiguousFrom(t *testing.T, evs []engine.Event, first int) {
	t.Helper()
	for i, ev := range evs {
		if ev.Seq != first+i {
			t.Errorf("batch from %d: event %d has seq %d", first, i, ev.Seq)
			return
		}
	}
}

// TestColdReadDoesNotStallEpochs is the regression for "cold reads must not
// stall the market": while a cold Events(0) is parked inside the WAL
// read-back, appends, whole epochs and warm reads all complete — the
// read-back holds neither the event log's lock nor the engine's — and once
// released the cold read returns disk and memory stitched gap-free,
// including the events appended while it was parked.
func TestColdReadDoesNotStallEpochs(t *testing.T) {
	var gate *gatedLog
	e, w := coldEngine(t, func(w *Log) engine.Persister {
		gate = &gatedLog{Log: w, entered: make(chan struct{}), release: make(chan struct{})}
		return gate
	})
	defer w.Close()
	defer e.Stop()

	headBefore := e.Log().LastSeq()
	cold := make(chan []engine.Event, 1)
	go func() { cold <- e.Log().Since(0) }()
	<-gate.entered // the cold read is now inside ReadBack

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			mustTicket(e.SubmitRegister(fmt.Sprintf("late%d", i), 10))
			if _, ran := e.TriggerEpoch(); !ran {
				t.Error("epoch skipped")
			}
		}
		if warm := e.Log().Since(e.Log().LastSeq() - 2); len(warm) != 2 {
			t.Errorf("warm read returned %d events, want 2", len(warm))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("epochs stalled behind a cold read")
	}

	// The tail moved while the read was parked, so it has to go back to disk
	// for the part that has left memory since: release every round.
	go func() {
		for {
			select {
			case gate.release <- struct{}{}:
			case <-gate.entered:
			case <-time.After(5 * time.Second):
				return
			}
		}
	}()
	select {
	case evs := <-cold:
		if len(evs) != e.Log().LastSeq() || len(evs) <= headBefore {
			t.Fatalf("cold read returned %d events; log had %d when it began and %d now", len(evs), headBefore, e.Log().LastSeq())
		}
		contiguousFrom(t, evs, 1)
	case <-time.After(10 * time.Second):
		t.Fatal("cold read never returned")
	}
}

// TestColdReadersBesideEpochs hammers cold and random cursors from several
// goroutines while epochs run (CI runs it under -race): every batch is
// gap-free, starts right after its cursor and reaches at least the head the
// reader saw before asking.
func TestColdReadersBesideEpochs(t *testing.T) {
	e, w := coldEngine(t, func(w *Log) engine.Persister { return w })
	defer w.Close()
	defer e.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				head := e.Log().LastSeq()
				after := 0
				if r > 0 {
					after = (i * 13 * r) % (head + 1)
				}
				evs := e.Log().Since(after)
				contiguousFrom(t, evs, after+1)
				if after+len(evs) < head {
					t.Errorf("Events(%d) ended at %d, head was already %d", after, after+len(evs), head)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 150; i++ {
		mustTicket(e.SubmitRegister(fmt.Sprintf("p%03d", i), 10))
		if i%3 == 2 {
			e.TriggerEpoch()
		}
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.ReadBackEvents == 0 || st.PersistErr != "" {
		t.Fatalf("read-back not exercised cleanly: %+v", st)
	}
}

// TestWindowReadsDoNotWaitOnAppendLock: under -fsync always an append holds
// the Log's lock across its fsync; the event log's window is read back
// positionally beside it: with that lock held, Since and SinceJSON of a
// cursor inside the window return (a cold cursor's read-back notes the
// append position under the lock, so none is asked for).
func TestWindowReadsDoNotWaitOnAppendLock(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Policy: SyncAlways, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	defer e.Stop()
	driveAll(t, e, script())
	head := e.Log().LastSeq()
	if st := e.Stats(); st.EventsHeld < 20 || st.EventsHeldBytes > 16*st.EventsHeld {
		t.Fatalf("the window holds %d events in %d B, want at least 20 at 16 B each", st.EventsHeld, st.EventsHeldBytes)
	}
	want := e.Log().SinceJSON(head - 20)

	w.mu.Lock() // as an fsync in progress holds it
	read := make(chan []byte, 1)
	go func() {
		if evs := e.Log().Since(head - 20); len(evs) != 20 {
			t.Errorf("Since returned %d events, want 20", len(evs))
		}
		read <- e.Log().SinceJSON(head - 20)
	}()
	select {
	case got := <-read:
		w.mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("SinceJSON under the append lock:\n%s\nwant\n%s", got, want)
		}
	case <-time.After(5 * time.Second):
		w.mu.Unlock()
		t.Fatal("a window read waited on the append lock")
	}
}

// readState reports how many segments w lists for the event log's reads and
// how many files it holds open for them.
func (w *Log) readState() (segs, files int) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	if w.rf != nil {
		files++
	}
	for _, s := range w.segs {
		if s.kept != nil {
			files++
		}
	}
	return len(w.segs), files
}

// TestWindowReadsHoldFewFiles: a window that spans dozens of small segments
// is read back through one file the Log holds, opening the others by name. A
// prune that unlinks the window's segments keeps one file open for each, so
// they still read, and closes them once the window has moved past. After
// Close the Log holds no file and the window still reads.
func TestWindowReadsHoldFewFiles(t *testing.T) {
	openFiles := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(fds)
	}
	openFiles()
	// No collection, so no finalizer closes a file the Log let go of: only
	// the files it closes itself leave the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 256, 64 })()
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	start := openFiles() // the append segment's among them
	l, ref := engine.NewEventLog(), engine.NewEventLog()
	l.SetPersister(w)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			ev := engine.Event{Kind: engine.EventRequestUnmet, At: time.Unix(int64(i), 0), Note: fmt.Sprintf("event %d", l.LastSeq()+1)}
			l.Append(ev)
			ref.Append(ev)
		}
	}
	check := func(what string, maxFiles int) {
		t.Helper()
		held, _, _, rerr := l.Held()
		for after := l.LastSeq() - held; after <= l.LastSeq(); after++ {
			if got, want := l.SinceJSON(after), ref.SinceJSON(after); !bytes.Equal(got, want) {
				t.Fatalf("%s: SinceJSON(%d):\n%s\nwant\n%s", what, after, got, want)
			}
		}
		if _, _, _, rerr = l.Held(); rerr != nil {
			t.Fatalf("%s: %v", what, rerr)
		}
		if n := openFiles(); n > maxFiles {
			segs, files := w.readState()
			t.Fatalf("%s: %d files open, want at most %d (%d segments listed, %d files held)", what, n, maxFiles, segs, files)
		}
	}

	appendN(2000)
	if segs, _ := w.readState(); segs < 20 {
		t.Fatalf("the window spans %d segments, want dozens", segs)
	}
	check("a window over many segments", start+1)

	if _, err := w.PruneCovered(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	segs, kept := w.readState()
	if kept < segs-2 {
		t.Fatalf("pruning under a window of %d segments kept %d files", segs, kept)
	}
	check("after pruning the window's segments", start+1+segs)

	appendN(1000)
	if n := openFiles(); n > start {
		t.Fatalf("%d files open once the window moved past every segment read so far, want %d", n, start)
	}
	check("once the window moved past the pruned segments", start+1)

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close", start-1)
}
