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
// Boot wires recovery end to end: delete the tmp files of snapshot writes a
// crash cut short, load the newest parseable snapshot (if any), rebuild the
// platform from it (or fresh), then scan the WAL once — from the first
// segment the snapshot does not wholly cover, truncating any torn tail and
// leaving it open for appending — streaming each segment's events into
// engine.Restore, which replays the ones past the snapshot onto the platform
// and keeps only the newest tail in memory. Segments the snapshot covers are
// not read at all, and in the first one that is read the records it covers
// are checked but not decoded, so recovery costs the snapshot plus the log
// suffix behind it, not the market's lifetime. Covered segments stay on disk
// until a prune, and subscriber cursors from before the restart resume
// gap-free from them and the rest, served by ReadBack.
//
// # Checkpoints
//
// Engine.Snapshot cuts a checkpoint under the engine's epoch lock — the book
// is shared, not copied — and WriteSnapshot encodes it after the lock is
// released, streaming the settlements and the ticket window through a
// buffered writer into a tmp file that is fsynced, renamed into place and
// made durable with a directory fsync. PruneAfterSnapshot then retires all but the newest two snapshots and
// optionally drops the segments the older of them covers. The one caller that
// sequences all three is federation.Market.SnapshotAll, which runs in the
// background whenever a shard's log has grown retain.Windows.Checkpoint
// events past its last checkpoint, on demand (dmms POST /snapshot) and on
// drain (dmgateway -snapshot-on-drain).
package wal
