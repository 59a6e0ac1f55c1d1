package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced. See the package
// documentation for the trade-offs.
type SyncPolicy string

// Sync policies.
const (
	SyncAlways SyncPolicy = "always"
	SyncEpoch  SyncPolicy = "epoch"
	SyncOff    SyncPolicy = "off"
)

// ParseSyncPolicy validates a policy label (e.g. from a -fsync flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncEpoch, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, epoch or off)", s)
}

// Options configures a WAL.
type Options struct {
	// Dir holds the segment and snapshot files; created if absent.
	Dir string
	// Policy is the fsync policy (default SyncEpoch).
	Policy SyncPolicy
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// Metrics, when non-nil, receives the WAL's telemetry: append/fsync
	// latency histograms, segment-count gauge, bytes-written and
	// recovery-truncation counters. Observability only — never affects
	// what is written or recovered.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = SyncEpoch
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Log is an open, appendable WAL. It implements engine.Persister; attach it
// via engine.Config.Persister. Safe for concurrent use, though the engine's
// event log already serializes appends.
//
// The engine's event log reads the records of its window back by extent
// (ReadRecords), from the segments this Log appended them to. A read opens
// its segment by name, and the Log keeps the file it opened last for the
// next read, so window readers, which mostly read the active segment, cost
// one open per segment they move to and the Log one file. A segment that
// PruneCovered unlinks while the window may still read it is kept open
// instead, until the event log releases it (Release), so its records stay
// readable after the prune and after Close.
type Log struct {
	opt Options

	mu       sync.Mutex
	f        *os.File
	curName  string // name of the active append segment
	segBytes int64
	lastSeq  int
	err      error  // sticky: first append/sync failure wedges the log
	frame    []byte // PersistRecord's frame buffer, reused up to maxFrameKept

	// hmu guards the read side. It is never held across a write or an
	// fsync, so positional reads never wait on an append.
	hmu  sync.Mutex
	segs []windowSegment // appended to since open and not released, oldest first
	rf   *segFile        // the segment a read last opened by name, kept for the next
	shut bool            // Close has run: a read's file is its own

	// telemetry (nil-safe no-ops when Options.Metrics is unset)
	mAppend   *obs.Histogram
	mFsync    *obs.Histogram
	mSegments *obs.Gauge
	mBytes    *obs.Counter
}

// initMetrics registers the WAL families and seeds the segment gauge.
func (w *Log) initMetrics(reg *obs.Registry, segments, truncations int) {
	if reg == nil {
		return
	}
	w.mAppend = reg.NewHistogram("wal_append_seconds",
		"Latency of framing and writing one record to the active segment.", obs.FastBuckets)
	w.mFsync = reg.NewHistogram("wal_fsync_seconds",
		"Latency of each fsync of the active segment.", obs.FastBuckets)
	w.mSegments = reg.NewGauge("wal_segments",
		"Live WAL segments on disk (including the active append segment).")
	w.mBytes = reg.NewCounter("wal_bytes_written_total",
		"Bytes appended to WAL segments since open.")
	reg.NewCounter("wal_recovery_truncations_total",
		"Torn tails truncated during recovery scans.").Add(float64(truncations))
	w.mSegments.Set(float64(segments))
}

// windowSegment is a segment the Log has appended to and the event log may
// read from: the seq its name says it begins at (it holds no record below
// that seq, and none at or past the next one's) and, once PruneCovered has
// unlinked it, the file kept open for those reads.
type windowSegment struct {
	first int
	kept  *segFile
}

// segFile is an open segment file shared by its holders — the Log while it
// keeps the file, and each read in progress on it — and closed by the last
// one to let go. hmu guards refs.
type segFile struct {
	first int
	f     *os.File
	refs  int
}

// unref lets go of s, nil or not. Caller holds hmu.
func (s *segFile) unref() {
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		s.f.Close() // read-only; nothing to lose
	}
}

func segmentName(firstSeq int) string { return fmt.Sprintf("wal-%010d.seg", firstSeq) }

// openSegment opens (creating it if need be) the segment name for appending,
// fsyncs the directory so a new entry is durable, and lists it for reads.
// Caller holds w.mu.
func (w *Log) openSegment(name string) error {
	f, err := os.OpenFile(filepath.Join(w.opt.Dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.opt.Dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.curName = f, name
	w.hmu.Lock()
	w.segs = append(w.segs, windowSegment{first: segmentFirstSeq(name)})
	w.hmu.Unlock()
	return nil
}

// syncDir fsyncs a directory so freshly created or renamed entries survive a
// power loss (file-content fsync alone does not make the directory entry
// durable on ext4/xfs).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segmentFiles lists the WAL segments in dir, sorted by name (== first seq,
// thanks to the zero padding).
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// scanAhead is how many decoded segments the segment reader may hold ready
// for its consumer. Boot starts reading the WAL tail before it loads the
// snapshot, when nothing consumes it yet; this bounds what the reader holds
// meanwhile (each segment is about Options.SegmentBytes of records).
const scanAhead = 4

// scanSegments is the one segment reader behind recovery (openScan), Load
// and ReadBack. It decodes the named segments of dir in order, enforcing seq
// contiguity across them, and hands visit each one's index, events,
// valid-prefix length and size. The scan ends after the first torn segment
// (valid < size: later ones are beyond the valid prefix), when visit returns
// false, or on an error. Only activeBytes of the segment named active are
// decoded — its tail may be mid-append. skipMissing tolerates a segment
// PruneCovered removed under the scan: contiguity restarts at the next one.
// Events with seq <= covered come back as seq-only placeholders
// (decodeRecords).
//
// A reader goroutine decodes up to scanAhead segments ahead of visit, so
// recovery — where visit replays the events, about as much work as decoding
// them — runs its two halves side by side. The reader has exited when
// scanSegments returns.
func scanSegments(dir string, names []string, active string, activeBytes int64, skipMissing bool, covered int,
	visit func(i int, evs []engine.Event, valid, size int) (bool, error)) error {
	return startScan(dir, names, active, activeBytes, skipMissing, covered).run(visit)
}

// segmentScan is scanSegments split in two: startScan sets the reader going,
// run consumes what it decoded. Boot starts the scan of the WAL tail early and
// consumes it later (openScan).
type segmentScan struct {
	names   []string // the segments it reads, in order
	covered int      // the seq up to which records decode as placeholders
	ahead   chan segment
	stop    chan struct{}
	closed  sync.Once
	adopted bool // an openScan consumed it as the early scan it was handed
	// busy is the reader's own time, reading and decoding — not the time it
	// waits for room in ahead. It is final once ahead is closed.
	busy time.Duration
}

// segment is one decoded segment, as the reader hands it over.
type segment struct {
	i           int
	evs         []engine.Event
	valid, size int
	err         error
}

// startScan starts the segment reader over names; see scanSegments.
func startScan(dir string, names []string, active string, activeBytes int64, skipMissing bool, covered int) *segmentScan {
	sc := &segmentScan{names: names, covered: covered, ahead: make(chan segment, scanAhead), stop: make(chan struct{})}
	go func() {
		defer close(sc.ahead)
		wantNext := 0
		for i, name := range names {
			start := time.Now()
			s := segment{i: i}
			raw, err := os.ReadFile(filepath.Join(dir, name))
			switch {
			case err != nil && skipMissing && os.IsNotExist(err):
				wantNext = 0
				continue
			case err != nil:
				s.err = fmt.Errorf("wal: read segment %s: %w", name, err)
			default:
				if name == active && int64(len(raw)) > activeBytes {
					raw = raw[:activeBytes]
				}
				s.evs, s.valid = decodeRecords(raw, wantNext, covered)
				s.size = len(raw)
				if len(s.evs) > 0 {
					wantNext = s.evs[len(s.evs)-1].Seq + 1
				}
			}
			sc.busy += time.Since(start)
			select {
			case sc.ahead <- s:
			case <-sc.stop:
				return
			}
			if s.err != nil || s.valid < s.size {
				return
			}
		}
	}()
	return sc
}

// run hands visit the decoded segments in order, as scanSegments describes,
// then closes the scan.
func (sc *segmentScan) run(visit func(i int, evs []engine.Event, valid, size int) (bool, error)) error {
	defer sc.close()
	for s := range sc.ahead {
		if s.err != nil {
			return s.err
		}
		if more, err := visit(s.i, s.evs, s.valid, s.size); err != nil || !more {
			return err
		}
	}
	return nil
}

// close stops the reader, drops whatever it decoded that nobody took, and
// waits for it to exit. It is idempotent and a no-op on a nil scan.
func (sc *segmentScan) close() {
	if sc == nil {
		return
	}
	sc.closed.Do(func() {
		close(sc.stop)
		for range sc.ahead {
		}
	})
}

// Load reads every valid event from the WAL in dir: segments in order, each
// decoded up to its valid prefix. A torn or corrupt record ends the log —
// whatever was durably written before it is returned, never an error.
// A missing or empty directory yields an empty log.
func Load(dir string) ([]engine.Event, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	var events []engine.Event
	err = scanSegments(dir, segs, "", 0, false, 0, func(_ int, evs []engine.Event, _, _ int) (bool, error) {
		events = append(events, evs...)
		return true, nil
	})
	return events, err
}

// Open prepares the WAL in opts.Dir for appending: scans existing segments,
// truncates any torn tail off the last valid one, removes segments beyond
// the valid prefix, and positions the append cursor after the last durable
// record. The returned Log expects the next Persist to carry seq LastSeq()+1.
func Open(opts Options) (*Log, error) {
	w := &Log{opt: opts.withDefaults()}
	if _, err := w.openScan(0, nil, nil); err != nil {
		return nil, err
	}
	return w, nil
}

// tailSegments lists the segments in dir and the index of the first one
// recovery from a checkpoint at watermark reads: the last that begins at or
// below watermark+1. Every segment before it the checkpoint covers entirely.
func tailSegments(dir string, watermark int) (segs []string, from int, err error) {
	segs, err = segmentFiles(dir)
	for i, name := range segs {
		if segmentFirstSeq(name) <= watermark+1 {
			from = i
		}
	}
	return segs, from, err
}

// openScan is Open on a fresh Log, streaming: each segment's events go to
// yield (nil = discard) as it is decoded — Boot replays them from there, so
// recovery reads each segment once and holds at most scanAhead+2 segments'
// events (the one being replayed, the ones decoded ahead of it and the one
// being decoded). Sealed segments a checkpoint at watermark covers entirely
// are not read at all: they stay on disk for ReadBack (and PruneCovered), and
// a torn record inside one truncates nothing. In the segments it does read,
// the records up to watermark are checked but not decoded: yield gets them as
// seq-only placeholders.
//
// early is a scan the caller started before it knew the watermark for sure
// (Boot's early decode; nil for none), and still owns. openScan consumes it
// if it reads exactly the segments, and leaves undecoded exactly the records,
// that this call would; otherwise it closes it and scans afresh. It returns
// the reader's own time (segmentScan.busy) of the scan it consumed.
func (w *Log) openScan(watermark int, early *segmentScan, yield func([]engine.Event) error) (time.Duration, error) {
	dir := w.opt.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	segs, from, err := tailSegments(dir, watermark)
	if err != nil {
		return 0, err
	}
	sc := early
	if sc != nil && sc.covered == watermark && slices.Equal(sc.names, segs[from:]) {
		sc.adopted = true
	} else {
		early.close()
		sc = startScan(dir, segs[from:], "", 0, false, watermark)
	}
	appendTo := "" // segment to continue appending into
	var appendSize int64
	liveSegs := len(segs)
	truncations := 0
	err = sc.run(func(i int, evs []engine.Event, valid, size int) (bool, error) {
		i += from
		if len(evs) > 0 {
			w.lastSeq = evs[len(evs)-1].Seq
			if yield != nil {
				if err := yield(evs); err != nil {
					return false, err
				}
			}
		}
		appendTo, appendSize = segs[i], int64(valid)
		if valid < size {
			// Torn tail: truncate to the valid prefix and drop everything
			// beyond it.
			truncations++
			if err := os.Truncate(filepath.Join(dir, segs[i]), int64(valid)); err != nil {
				return false, fmt.Errorf("wal: truncate torn tail of %s: %w", segs[i], err)
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(filepath.Join(dir, later)); err != nil {
					return false, fmt.Errorf("wal: drop segment %s beyond valid prefix: %w", later, err)
				}
			}
			liveSegs = i + 1
		}
		return true, nil
	})
	if err != nil {
		return sc.busy, err
	}

	if appendTo == "" {
		appendTo = segmentName(w.lastSeq + 1)
		liveSegs = 1
	}
	if err := w.openSegment(appendTo); err != nil {
		return sc.busy, err
	}
	w.segBytes = appendSize
	w.initMetrics(w.opt.Metrics, liveSegs, truncations)
	return sc.busy, nil
}

// ReadBack returns the persisted events with after < Seq <= upto, in order —
// the engine's event log serves cursors older than its in-memory tail from
// here. It takes w.mu only to note the append position: sealed segments are
// read whole and the active one up to the noted size (Persist writes whole
// records under w.mu), so appends and epochs run beside a cold read. Where
// PruneCovered has removed segments, before or under the read, the result
// starts at the first retained seq. It keeps working on a closed log.
func (w *Log) ReadBack(after, upto int) ([]engine.Event, error) {
	w.mu.Lock()
	active, activeBytes, last := w.curName, w.segBytes, w.lastSeq
	w.mu.Unlock()
	if upto = min(upto, last); after >= upto {
		return nil, nil
	}
	segs, err := segmentFiles(w.opt.Dir)
	if err != nil {
		return nil, err
	}
	// Segment names encode their first seq: start at the last segment that
	// begins at or below after+1, stop before the first that begins past
	// upto or past the noted active one (a later name is a rotation that
	// happened after the note).
	from, to := 0, 0
	for i, name := range segs {
		if name > active || segmentFirstSeq(name) > upto {
			break
		}
		to = i + 1
		if segmentFirstSeq(name) <= after+1 {
			from = i
		}
	}
	var out []engine.Event
	err = scanSegments(w.opt.Dir, segs[from:to], active, activeBytes, true, 0,
		func(_ int, evs []engine.Event, _, _ int) (bool, error) {
			out = appendRange(out, evs, after, upto)
			return len(evs) == 0 || evs[len(evs)-1].Seq < upto, nil
		})
	return out, err
}

// ReadRecords implements the engine's positional read-back: the records of
// seq, seq+1, … that fill the bytes [at, end) of the segment seq is in, at
// extents PersistRecord reported, each handed to fn once its checksum and
// seq check out (readRecords). It takes only hmu, and only to find the
// segment's file, so it never waits on an append or its fsync. The segment
// is one this Log appended to and has not released, so it reads the same
// after a rotation, PruneCovered or Close.
func (w *Log) ReadRecords(seq int, at, end int64, fn func(rec []byte) error) error {
	sf, err := w.segmentFile(seq)
	if err != nil {
		return err
	}
	buf := readBufs.Get().(*[]byte)
	*buf, err = readRecords(sf.f, *buf, seq, at, end, fn)
	if cap(*buf) <= maxFrameKept {
		readBufs.Put(buf)
	}
	w.hmu.Lock()
	sf.unref()
	w.hmu.Unlock()
	return err
}

// segmentFile returns the open file of the segment seq is in, with a
// reference for the caller: the one PruneCovered kept, or else the linked
// file, opened by name unless it is the one a read opened last (which it
// then becomes, until Close).
func (w *Log) segmentFile(seq int) (*segFile, error) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	i := sort.Search(len(w.segs), func(i int) bool { return w.segs[i].first > seq }) - 1
	if i < 0 {
		return nil, fmt.Errorf("wal: seq %d is not in a segment the event log holds", seq)
	}
	sf := w.segs[i].kept
	if sf == nil && w.rf != nil && w.rf.first == w.segs[i].first {
		sf = w.rf
	}
	if sf == nil {
		f, err := os.Open(filepath.Join(w.opt.Dir, segmentName(w.segs[i].first)))
		if err != nil {
			return nil, err
		}
		sf = &segFile{first: w.segs[i].first, f: f}
		if !w.shut {
			w.rf.unref()
			w.rf, sf.refs = sf, 1
		}
	}
	sf.refs++
	return sf, nil
}

// readBufs recycles ReadRecords' buffers: the event log's pollers read the
// window's newest records back many times a second.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// Release forgets the segments whose records all have seq <= upto, closing
// any file kept for them: the engine's event log holds no extent in them any
// more. The active segment stays.
func (w *Log) Release(upto int) {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	n := 0
	for n+1 < len(w.segs) && w.segs[n+1].first <= upto+1 {
		w.segs[n].kept.unref()
		n++
	}
	w.segs = slices.Delete(w.segs, 0, n)
	if w.rf != nil && len(w.segs) > 0 && w.rf.first < w.segs[0].first {
		w.rf.unref()
		w.rf = nil
	}
}

// keep opens the segment first before PruneCovered unlinks it, if the event
// log may still read it, and keeps the file for those reads.
func (w *Log) keep(first int) error {
	w.hmu.Lock()
	defer w.hmu.Unlock()
	i := sort.Search(len(w.segs), func(i int) bool { return w.segs[i].first >= first })
	if i == len(w.segs) || w.segs[i].first != first || w.segs[i].kept != nil {
		return nil
	}
	f, err := os.Open(filepath.Join(w.opt.Dir, segmentName(first)))
	if err != nil {
		return err
	}
	w.segs[i].kept = &segFile{first: first, f: f, refs: 1}
	return nil
}

// appendRange appends the part of one decoded segment (a contiguous run)
// that falls in (after, upto] to out. If the run does not continue out — the
// segment between them was pruned under the read — out restarts with it.
func appendRange(out, evs []engine.Event, after, upto int) []engine.Event {
	if len(evs) == 0 {
		return out
	}
	first := evs[0].Seq
	lo, hi := max(after+1-first, 0), min(upto+1-first, len(evs))
	if lo >= hi {
		return out
	}
	if n := len(out); n > 0 && out[n-1].Seq+1 != evs[lo].Seq {
		out = out[:0]
	}
	return append(out, evs[lo:hi]...)
}

// archiveCoveredSegments renames every segment to <name>.covered[.N],
// taking it out of the WAL's sight while preserving it for forensics. Used
// when a snapshot supersedes records the log lost (fsync=off crash, wedged
// persister): the stale prefix would otherwise collide with seqs the
// checkpoint already covers. Archive names never overwrite an earlier
// archive from a previous cycle.
func archiveCoveredSegments(dir string) error {
	segs, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range segs {
		path := filepath.Join(dir, name)
		dst := path + ".covered"
		for n := 1; ; n++ {
			if _, err := os.Stat(dst); os.IsNotExist(err) {
				break
			}
			dst = fmt.Sprintf("%s.covered.%d", path, n)
		}
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("wal: archive stale segment %s: %w", name, err)
		}
	}
	return nil
}

// LastSeq returns the seq of the last durably appended record.
func (w *Log) LastSeq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// SkipTo advances the append cursor without writing: the records up to seq
// are covered by a snapshot and their segments were pruned. It only ever
// moves forward.
func (w *Log) SkipTo(seq int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.lastSeq {
		w.lastSeq = seq
	}
}

// maxFrameKept is the largest frame buffer PersistRecord keeps for the next
// record; events are a few hundred bytes, shares with their relation more.
const maxFrameKept = 1 << 20

// PersistRecord implements engine.Persister: frame rec in a reused buffer,
// append it, fsync per policy, and report the frame's extent in its segment.
// Appends must arrive in seq order with no gaps; a violation (or any write
// error) wedges the log and every later append returns the same error.
func (w *Log) PersistRecord(seq int, kind engine.EventKind, rec []byte) (engine.Extent, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return engine.Extent{}, w.err
	}
	if seq != w.lastSeq+1 {
		w.err = fmt.Errorf("wal: out-of-order append: seq %d after %d", seq, w.lastSeq)
		return engine.Extent{}, w.err
	}
	if len(rec) > maxRecordSize {
		w.err = fmt.Errorf("wal: event %d record %d bytes exceeds record limit", seq, len(rec))
		return engine.Extent{}, w.err
	}
	var start time.Time
	if w.mAppend != nil {
		start = time.Now()
	}
	w.frame = appendRecord(w.frame[:0], rec)
	n := len(w.frame)
	_, err := w.f.Write(w.frame)
	if cap(w.frame) > maxFrameKept {
		w.frame = nil // a rare large share is not held for the log's life
	}
	if err != nil {
		w.err = err
		return engine.Extent{}, err
	}
	if w.mAppend != nil {
		w.mAppend.Observe(time.Since(start).Seconds())
		w.mBytes.Add(float64(n))
	}
	ext := engine.Extent{At: w.segBytes, Size: uint32(n)}
	w.segBytes += int64(n)
	w.lastSeq = seq

	switch w.opt.Policy {
	case SyncAlways:
		err = w.timedSync()
	case SyncEpoch:
		if kind == engine.EventEpochEnd {
			err = w.timedSync()
		}
	}
	if err == nil && w.segBytes >= w.opt.SegmentBytes {
		err = w.rotate()
	}
	if err != nil {
		w.err = err
		return engine.Extent{}, err
	}
	return ext, nil
}

// Persist appends ev's record as the engine's event log encodes it
// (engine.Record), for writing a WAL without an engine (bench/probe times
// it). An event that cannot be encoded is not written.
func (w *Log) Persist(ev engine.Event) error {
	rec, err := engine.Record(ev)
	if err != nil {
		return err
	}
	_, err = w.PersistRecord(ev.Seq, ev.Kind, rec)
	return err
}

// timedSync fsyncs the active segment, feeding the fsync-latency histogram.
// Caller holds w.mu.
func (w *Log) timedSync() error {
	if w.mFsync == nil {
		return w.f.Sync()
	}
	start := time.Now()
	err := w.f.Sync()
	w.mFsync.Observe(time.Since(start).Seconds())
	return err
}

// rotate seals the current segment and opens the next. Caller holds w.mu.
func (w *Log) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := w.openSegment(segmentName(w.lastSeq + 1)); err != nil {
		return err
	}
	w.segBytes = 0
	w.mSegments.Add(1)
	return nil
}

// segmentFirstSeq parses the first-record seq a segment name encodes
// ("wal-%010d.seg"); 0 when the name is malformed.
func segmentFirstSeq(name string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// PruneCovered removes sealed WAL segments made fully redundant by a
// snapshot at the given watermark seq: a segment is dropped when every
// record it holds has seq <= watermark (i.e. the next segment starts at or
// below watermark+1). The active append segment is never removed, so the
// log always stays appendable and the [watermark+1, head] suffix stays
// replayable. Returns how many segments were removed. Call it after
// WriteSnapshot succeeds; wal.Boot handles the resulting pruned prefix
// (recovery starts from the snapshot and replays only the surviving tail).
func (w *Log) PruneCovered(watermark int) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("wal: prune on closed log")
	}
	segs, err := segmentFiles(w.opt.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, name := range segs {
		if name == w.curName || i+1 >= len(segs) {
			break
		}
		if segmentFirstSeq(segs[i+1]) > watermark+1 {
			break // this segment holds records past the watermark
		}
		err := w.keep(segmentFirstSeq(name))
		if err == nil {
			err = os.Remove(filepath.Join(w.opt.Dir, name))
		}
		if err != nil {
			if os.IsNotExist(err) {
				continue // a concurrent prune got there first; idempotent
			}
			return removed, fmt.Errorf("wal: prune segment %s: %w", name, err)
		}
		removed++
	}
	if removed > 0 {
		w.mSegments.Add(float64(-removed))
		if err := syncDir(w.opt.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close syncs and closes the current segment, and the file a read opened
// last. Reads after it open their segment for themselves; a file
// PruneCovered kept stays open, as the event log may still read it, until
// the log releases it or the Log is garbage collected.
func (w *Log) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("wal: closed")
	}
	w.hmu.Lock()
	w.shut = true
	w.rf.unref()
	w.rf = nil
	w.hmu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
