// Package wal is the durable half of the market engine's event log: a
// segmented write-ahead log that persists every engine.Event's record
// (engine.Persister) before the event becomes visible to readers, plus the
// snapshot files that let a restart skip replaying from seq 1 and the
// archive that holds the settlement book.
//
// # Directory layout
//
// One WAL directory is one engine's lineage (a federation shard's, or the
// whole market's with one shard):
//
//	wal-<firstseq>.seg             the log, in rotating segments
//	snapshot-<seq>.json            the newest two checkpoints, each covering
//	                               the log up to <seq>: a JSON head, then the
//	                               ticket window as binary records
//	snapshot-<seq>.json.tmp-<rand> a checkpoint a crash cut short; Boot
//	                               removes it
//	settlements.archive            the settlement book up to the newest
//	                               checkpoint, one record per settlement
//	wal-<firstseq>.seg.covered[.N] segments set aside because a snapshot
//	                               superseded them (see Boot)
//
// The archive is written only by checkpoints and only ever appended to. A
// snapshot names the archive prefix it covers by a ledger.BookMark — entry
// count, byte length, CRC-32C of those bytes, and the book's debits, credits
// and conservation over them — in place of the settlements themselves, so
// neither writing a checkpoint nor loading one costs O(settlements ever
// made). The archive is created by the first checkpoint that has a
// settlement to archive, never at boot.
//
// # Snapshot form
//
// A snapshot file is the engine checkpoint as JSON — the head, everything
// but the ticket window, with the book's mark under "settlements" — followed
// by a trailer: one framed record (the segment record format below) per
// ticket of the window, in window order, each a compact binary encoding of
// the ticket, then a framed footer record holding the head's length and the
// ticket count, then a fixed magic string with a NUL byte in it. The window
// is most of a busy market's checkpoint (16,384 terminal tickets) and decodes
// an order of magnitude faster this way than as JSON. The magic tells the
// forms apart: snapshots written before the trailer are JSON alone, tickets
// under "tickets" (and streamed with a newline after each), and no JSON text
// can end in a NUL; they load as before. A release from before the trailer
// cannot read the new form — JSON may not continue past its value — so it
// skips such a snapshot and replays the WAL, or refuses to boot when the
// segments it would need were pruned, never restoring an empty window.
//
// # Record format
//
// Each record is length-prefixed, checksummed JSON:
//
//	offset  size  field
//	0       4     payload length N, little-endian uint32
//	4       4     CRC-32C (Castagnoli) of the payload, little-endian uint32
//	8       N     payload: one engine.Event's record (engine.Record)
//
// Records are concatenated into segment files named wal-<firstseq>.seg,
// rotated once a segment exceeds Options.SegmentBytes. The settlement-book
// archive uses the same framing with one ledger.Settlement (JSON) per
// payload, a snapshot's ticket trailer with one binary ticket per payload.
// Sequence numbers are
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
// on a goroutine of its own, up to scanAhead segments ahead of its caller, so
// a boot replays segment N while the next ones are read and parsed: recovery
// time is the longer of the two, not their sum.
//
// # Read-back
//
// The WAL is the record, and the engine's event log holds no copy of it: its
// window of the newest events is an index of where each record sits
// (PersistRecord reports the frame's extent in its segment). ReadRecords
// serves the window: one positional read (pread) of a run of adjacent
// frames, each checked against its CRC and its seq, taking no lock but the
// one guarding the read side's files — never the append lock, which an fsync
// holds. A read opens its segment by name, and the Log keeps the file opened
// last for the next read: one file for a window of any number of segments.
// A segment PruneCovered unlinks while the window still reads it is kept
// open until the event log releases it (Release, as its window moves past),
// so the window reads the same after a rotation, a prune or Close. Files are
// read, never mapped: mapped pages would count as the process's resident
// memory.
//
// ReadBack(after, upto) returns the persisted events in that range so
// cursors older than the window can still be served. Segment names encode
// their first seq, so it opens only the segments that can intersect the
// range: sealed ones whole, the active one up to the size noted under the
// append lock (a prefix of whole records). Nothing else is locked — appends,
// fsyncs and rotations proceed beside a cold read. If PruneCovered has
// removed segments, before or during the read, the result starts at the
// first retained seq: pruned history is gone, exactly as after a restore from
// the snapshot that covered it.
//
// # Fsync policy
//
// Options.Policy trades durability for throughput:
//
//	SyncAlways  fsync after every record — no record is lost once Append
//	            returns; slowest (one fsync per event).
//	SyncEpoch   fsync when an epoch-end or an xtx-committed record is
//	            written (and on rotation and close) — a crash loses at most
//	            the current epoch, the natural batching unit of the engine,
//	            and never a cross-shard sale's commit once a seller's shard
//	            has been paid.
//	SyncOff     fsync only on rotation and close — a crash loses whatever
//	            the OS had not flushed; fastest.
//
// # Boot sequence
//
// Boot wires recovery end to end: start decoding the WAL tail, delete the tmp
// files of snapshot writes a crash cut short, load the newest snapshot that
// parses and whose settlement-book archive prefix matches its mark (a CRC
// over the prefix; no archived settlement is decoded), rebuild the platform
// from it (or fresh), then scan the WAL once — from the first segment the
// snapshot does not wholly cover, truncating any torn tail and leaving it
// open for appending — streaming each segment's events into engine.Restore,
// which replays the ones past the snapshot onto the platform and holds none
// (its log starts at the recovered head); finally cut the archive back to
// the snapshot's mark, dropping what a later, unfinished or unusable
// checkpoint appended (the replayed tail has recorded those settlements
// again). Segments the
// snapshot covers are not read at all, and in the first one that is read the
// records it covers are checked but not decoded, so recovery costs the
// snapshot plus the log suffix behind it, not the market's lifetime. Covered
// segments stay on disk until a prune, and reader cursors from before the
// restart resume gap-free from them and the rest, served by ReadBack.
//
// The decode starts first, on the watermark the newest snapshot's file name
// gives: the segment reader works through the tail on its own goroutine — on
// a second core — while the snapshot loads and the platform is rebuilt, so
// replay finds its segments decoded. That scan is a guess, consumed whole or
// not at all: when boot settles on another watermark (the newest snapshot
// does not load, and an older one or none is used) the scan is dropped and
// the tail scanned afresh, and a boot that finds the log behind its snapshot
// rescans without it. Torn tails are truncated by the scan boot consumes,
// after the decode, exactly as without the early start. BootResult times the
// three phases (load, restore, replay; their sum is at most the boot) and,
// apart from them, the reader's own decode time, which overlaps them.
//
// A snapshot that does not parse, or whose archive prefix does not match, is
// passed over for the one before it and named in BootResult.SkippedSnapshots;
// if no snapshot that parses has an intact prefix, Boot refuses with an error
// naming the archive rather than restore a wrong book. A snapshot from before
// the archive lists its settlements; Boot imports them into a fresh archive
// and rewrites the snapshot with the mark, once. Such a release, in turn,
// cannot decode a snapshot that carries a mark: it passes it over and
// replays the WAL, or refuses when the segments it would need were pruned.
//
// # Checkpoints
//
// Engine.Snapshot cuts a checkpoint under the engine's epoch lock — the book
// is shared, not copied — and WriteSnapshot writes it after the lock is
// released, in this order:
//
//  1. append the settlements the book recorded since its archived mark to
//     the archive and fsync it — O(new settlements), not O(book);
//  2. encode the snapshot — the JSON head with the extended mark in place of
//     the book, then the ticket trailer, streamed through a buffered writer —
//     into a tmp file and fsync it;
//  3. rename the tmp file into place;
//  4. fsync the directory;
//  5. let the archived entries leave the book's memory (BookCut.Archived):
//     whole-book readers — GET /settlements, the crash tests' fingerprints —
//     stream them back from the archive, then the entries held in memory.
//
// A kill anywhere before step 4 leaves the previous checkpoint the newest one
// and at most some archive bytes past its mark, which the next boot cuts off;
// the next checkpoint rewrites them identically either way, since the
// encoding of an entry never changes. PruneAfterSnapshot then retires all but
// the newest two snapshots and optionally drops the segments the older of
// them covers; the archive is never pruned. The one caller that sequences
// these is federation.Market.SnapshotAll, which runs in the background
// whenever a shard's log has grown retain.Windows.Checkpoint events past its
// last checkpoint, on demand (dmms POST /snapshot) and on drain (dmgateway
// -snapshot-on-drain).
package wal
