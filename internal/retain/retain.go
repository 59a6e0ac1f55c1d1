// Package retain sizes the bounded in-memory windows of the settle path, and
// the checkpoint interval that bounds what a restart replays.
// Memory holds live state, the settlement book, and these recent windows,
// whose durable copy is the WAL. Every window is a pure function of the
// event stream (counts and seqs, never wall time), so a live run and a replay
// of its log hold the same things. The sizes are not configuration: nothing
// but Shrink, which only runs inside a test binary, ever changes them.
package retain

import "testing"

// Windows are the window sizes, in entries.
type Windows struct {
	// EventTail is how many of the newest events a durable event log keeps
	// in its window; older ones are read back from the WAL by range. It is
	// sized by how far readers trail the head, not by memory: on the
	// benchmark's cover burst (60k requests back to back, ~14k events/s, two
	// cores) the 2 ms /events poller asked at most 450 back — a few batch-64
	// epochs of ~130 events. 16k is over a second of that rate, so even a
	// 1 Hz poller gets a positional read of the records it asks for, not a
	// decode of whole segments. The window holds a 16 B index entry per
	// event (the record's extent in its segment and the wire form's length;
	// the JSON itself stays in the WAL), so ~260 KB; a log without a WAL, or
	// a wedged one, holds the JSON too, ~231 B an event. A slower reader is
	// served from disk by range, identically.
	// EventChunk is the unit the log indexes and releases events in.
	EventTail, EventChunk int
	// Tickets is how many terminal tickets stay pollable: a ticket retires
	// once this many later ones have turned terminal. Pollers come back after
	// the fact — the benchmark's set-up posts 22 submissions before polling
	// the first, its trace sampler fetches tickets while the request tracer
	// holds their span (the newest 4096) — so the window is four times the
	// tracer's: ~2.5 s of the cover burst. A held ticket costs ~32 B (a
	// packed record of ~20 B, its request and transaction IDs held as the
	// arbiter's counters, plus its share of the ring's spare room and of an
	// index of ring positions), so ~0.5 MB in all.
	Tickets int
	// History is how many completed transactions the arbiter keeps (each
	// pins its mashup and cut maps). History is a recent-activity view, never
	// an input to matching or replay, and every checkpoint carries it — so it
	// is sized to what an operator pages through: well under 1 MB.
	History int
	// Audit is how many entries the ledger's hash chain keeps. The chain is a
	// verification window, not the record; it covers what a participant
	// auditing the arbiter looks at, recent activity: at four to five entries
	// per settlement, the last ~1,800 settlements. An entry is one packed
	// record, its hash as 32 bytes: ~96 B each, ~0.8 MB in all.
	Audit int
	// Checkpoint is how many events a shard's log may run past its last
	// checkpoint before the market writes the next one in the background, so
	// a restart replays about this many at most (and reads one segment more).
	// It is sized by replay speed: boot replays ~85k events/s on the
	// benchmark's two cores, so 32k bounds the tail to ≲0.4 s, about six
	// checkpoints over a cover run's ~200k events, each ~0.1 s of encode and
	// fsync off the epoch path. Zero turns background checkpoints off (only
	// Shrink can set it).
	Checkpoint int
}

var sizes = Windows{EventTail: 16 << 10, EventChunk: 1 << 10, Tickets: 16 << 10, History: 1 << 10, Audit: 8 << 10,
	Checkpoint: 32 << 10}

// Sizes returns the windows in force.
func Sizes() Windows { return sizes }

// Shrink edits the windows until restore runs, so a test script of a few
// dozen events crosses them. Call it before building the engines under test
// and restore after stopping them. It panics outside a test binary.
func Shrink(edit func(*Windows)) (restore func()) {
	if !testing.Testing() {
		panic("retain: Shrink called outside a test")
	}
	old := sizes
	edit(&sizes)
	return func() { sizes = old }
}
