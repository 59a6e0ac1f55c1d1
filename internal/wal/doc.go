// Package wal is the durable half of the market engine's event log: a
// segmented write-ahead log that persists every engine.Event before it
// becomes visible to in-memory subscribers, plus the snapshot files that let
// a restart skip replaying from seq 1.
//
// # Record format
//
// Each record is length-prefixed, checksummed JSON:
//
//	offset  size  field
//	0       4     payload length N, little-endian uint32
//	4       4     CRC-32C (Castagnoli) of the payload, little-endian uint32
//	8       N     payload: one engine.Event, JSON-encoded
//
// Records are concatenated into segment files named wal-<firstseq>.seg,
// rotated once a segment exceeds Options.SegmentBytes. Sequence numbers are
// assigned by the engine's event log (1-based, no gaps); the WAL verifies
// contiguity on append and on load, so a decoded log is always a prefix of
// the in-memory history.
//
// # Torn tails
//
// A crash can leave a partial record at the end of the newest segment. The
// reader never fails on this: it stops at the first record whose length
// prefix is truncated, whose CRC mismatches, or whose payload does not parse,
// and recovers the longest valid prefix. Open additionally truncates the file
// there so new appends continue from a clean boundary. Corruption in the
// middle of the log (a torn non-final segment) likewise ends the valid
// prefix; later segments are beyond it and are dropped. There is one segment
// reader, scanSegments; Load, Open/Boot and ReadBack differ only in which
// segments they hand it and what they do with each decoded one. It decodes
// one segment ahead of its caller, so a boot replays segment N while N+1 is
// read and parsed: recovery time is the longer of the two, not their sum.
//
// # Read-back
//
// The engine's in-memory log is only a tail; the WAL is the record. ReadBack
// (after, upto) returns the persisted events in that range so cursors older
// than the tail can still be served. Segment names encode their first seq, so
// it opens only the segments that can intersect the range: sealed ones whole,
// the active one up to the size noted under the append lock (a prefix of
// whole records). Nothing else is locked — appends, fsyncs and rotations
// proceed beside a cold read. If PruneCovered has removed segments, before
// or during the read, the result starts at the first retained seq: pruned
// history is gone, exactly as after a restore from the snapshot that covered
// it.
//
// # Fsync policy
//
// Options.Policy trades durability for throughput:
//
//	SyncAlways  fsync after every record — no record is lost once Append
//	            returns; slowest (one fsync per event).
//	SyncEpoch   fsync when an epoch-end record is written (and on rotation
//	            and close) — a crash loses at most the current epoch, the
//	            natural batching unit of the engine.
//	SyncOff     fsync only on rotation and close — a crash loses whatever
//	            the OS had not flushed; fastest.
//
// # Boot sequence
//
// Boot wires recovery end to end: load the newest parseable snapshot (if
// any), rebuild the platform from it (or fresh), then scan the WAL once —
// truncating any torn tail and leaving it open for appending — streaming each
// segment's events into engine.Restore, which replays the ones past the
// snapshot onto the platform and keeps only the newest tail in memory; the
// whole log is never materialised. Subscriber cursors from before the restart
// resume gap-free, served by ReadBack. Snapshots are written by
// Engine.Snapshot via WriteSnapshot — on demand (dmms /snapshot), or on
// drain (dmgateway -snapshot-on-drain).
package wal
