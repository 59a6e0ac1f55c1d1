package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
)

// BootResult reports what recovery found.
type BootResult struct {
	// FromSnapshotSeq is the checkpoint watermark recovery started from
	// (0 = no snapshot, full replay).
	FromSnapshotSeq int
	// Recovered is how many valid WAL records the scan read, from the first
	// segment the snapshot does not wholly cover on (all of them with no
	// snapshot).
	Recovered int
	// Replayed is how many of those were decoded and applied to the platform:
	// the ones past the snapshot watermark.
	Replayed int
	// ArchivedSettlements is how many settlements the snapshot's book archive
	// prefix holds: entries boot checked but did not decode, and that the
	// book reads back from the archive instead of holding them.
	ArchivedSettlements int
	// SkippedSnapshots names each snapshot newer than the one recovery
	// started from, with why it was passed over: unreadable, unparseable, or
	// a book archive prefix that does not match its mark.
	SkippedSnapshots []string
	// Where boot's time went, phase by phase (their sum is at most the whole
	// boot): SnapshotLoad finds, reads and checks the newest usable snapshot
	// (importing a listed book into the archive); PlatformRestore rebuilds
	// the platform from it — re-sharing, so re-profiling and re-indexing,
	// the whole catalog — or creates an empty one; TailReplay replays the
	// events past it from the WAL segments the snapshot does not cover,
	// waiting for their decode where it has not finished yet.
	SnapshotLoad, PlatformRestore, TailReplay time.Duration
	// TailDecode is the segment reader's own time reading and decoding the
	// segments boot replayed from. It is not a phase: the reader runs on a
	// goroutine of its own, from before SnapshotLoad when the newest
	// snapshot's name guessed the watermark right, so it overlaps the phases
	// and is not part of their sum.
	TailDecode time.Duration
}

// Boot performs the full recovery sequence in opts.Dir and returns a
// platform + engine pair whose state matches the durable log, with the WAL
// reopened and attached as the engine's persister:
//
//  1. start decoding the WAL tail that the newest snapshot's file name says
//     recovery will replay (earlyScan), on a goroutine of its own;
//  2. remove snapshot tmp files a crash left mid-write, then load the newest
//     snapshot that parses and whose settlement-book archive prefix matches
//     its mark, if any (checked by CRC, not decoded); a snapshot from before
//     the archive, which lists its settlements, is imported into the archive
//     and rewritten without them;
//  3. rebuild the platform — from the snapshot checkpoint, or fresh;
//  4. scan the WAL once, segment by segment, from the first segment the
//     snapshot does not wholly cover (torn tails truncate, never fail),
//     decoding only the events past the snapshot watermark and streaming
//     them into engine.Restore, which replays them onto the platform and
//     folds them into the settlement book; only the newest tail stays in the
//     in-memory log (older cursors are served by Log.ReadBack), and only the
//     entries past the archive's mark in the book. The scan is step 1's when
//     that read the segments and watermark recovery settled on — then steps
//     2 and 3 ran beside the decode — and a fresh one otherwise;
//  5. the same scan leaves the WAL open for appending after the valid prefix;
//  6. cut the book archive back to the snapshot's mark: whatever a later,
//     unfinished or unusable checkpoint appended past it, the replayed WAL
//     tail has recorded again.
//
// The engine is returned stopped; the caller owns Start/Stop and must Close
// the returned Log after Stop.
func Boot(platOpts core.Options, cfg engine.Config, walOpts Options) (*core.Platform, *engine.Engine, *Log, BootResult, error) {
	walOpts = walOpts.withDefaults()
	return boot(platOpts, cfg, walOpts, earlyScan(walOpts.Dir))
}

// earlyScan starts the segment reader on the WAL tail that recovery from the
// newest snapshot in dir would replay, taking the watermark from the
// snapshot's file name before the snapshot is read. It is a guess, and only
// ever consumed whole or dropped (openScan): recovery may settle on an older
// snapshot, or none. nil when dir cannot be listed.
func earlyScan(dir string) *segmentScan {
	snaps, err := snapshotFiles(dir)
	if err != nil {
		return nil
	}
	watermark := 0
	if len(snaps) > 0 {
		watermark = snapshotSeq(snaps[0])
	}
	segs, from, err := tailSegments(dir, watermark)
	if err != nil {
		return nil
	}
	return startScan(dir, segs[from:], "", 0, false, watermark)
}

// boot is Boot with the early scan already started; it owns it.
func boot(platOpts core.Options, cfg engine.Config, walOpts Options, early *segmentScan) (*core.Platform, *engine.Engine, *Log, BootResult, error) {
	defer early.close()
	var res BootResult

	if err := removeSnapshotTmps(walOpts.Dir); err != nil {
		return nil, nil, nil, res, err
	}
	phase := time.Now()
	snap, skipped, err := loadSnapshot(walOpts.Dir)
	res.SkippedSnapshots = skipped
	if err != nil {
		return nil, nil, nil, res, fmt.Errorf("wal: load snapshot: %w", err)
	}
	if snap != nil && snap.Book.Mark.Count < snap.Book.Count() {
		// Listed, not archived: move the list into the archive once, so no
		// later boot decodes it again.
		_, mark, err := writeSnapshot(walOpts.Dir, snap)
		if err != nil {
			return nil, nil, nil, res, fmt.Errorf("wal: import settlements into the book archive: %w", err)
		}
		snap.Book = ledger.ArchivedCut(mark)
	}
	res.SnapshotLoad = time.Since(phase)
	phase = time.Now()
	var p *core.Platform
	var mark ledger.BookMark
	if snap != nil {
		res.FromSnapshotSeq = snap.TakenAtSeq
		mark = snap.Book.Mark
		res.ArchivedSettlements = mark.Count
		p, err = core.RestorePlatform(platOpts, snap.Platform)
	} else {
		p, err = core.NewPlatform(platOpts)
	}
	if err != nil {
		return nil, nil, nil, res, err
	}
	res.PlatformRestore = time.Since(phase)
	phase = time.Now()

	// restore scans a fresh Log into engine.Restore. The Log is the engine's
	// persister from the start — that is what lets the restored log hold none
	// of the recovered events, reading them back instead — but nothing is
	// appended until Restore returns.
	// sc is the early scan for openScan to consume or drop (nil for none).
	cfg.BookArchive = bookArchive(filepath.Join(walOpts.Dir, bookArchiveName))
	restore := func(sc *segmentScan) (*engine.Engine, *Log, error) {
		w := &Log{opt: walOpts}
		cfg.Persister = w
		res.Recovered, res.Replayed = 0, 0
		eng, err := engine.Restore(p, cfg, snap, func(yield func([]engine.Event) error) error {
			decode, err := w.openScan(res.FromSnapshotSeq, sc, func(evs []engine.Event) error {
				res.Recovered += len(evs)
				// The snapshot covers the placeholders in front.
				evs = evs[min(len(evs), max(0, res.FromSnapshotSeq+1-evs[0].Seq)):]
				res.Replayed += len(evs)
				if len(evs) == 0 {
					return nil
				}
				return yield(evs)
			})
			res.TailDecode += decode
			if err == nil && res.Recovered > 0 && w.lastSeq < res.FromSnapshotSeq {
				return engine.ErrLogBehindCheckpoint // every record found is covered: see below
			}
			return err
		})
		if err != nil {
			w.Close()
			return nil, nil, err
		}
		return eng, w, nil
	}
	eng, w, err := restore(early)
	if errors.Is(err, engine.ErrLogBehindCheckpoint) {
		// A log that ends short of the snapshot watermark (a crash under
		// fsync=off, or a wedged persister before the checkpoint) would reuse
		// seqs the checkpoint already covers. Every surviving record is
		// covered by the snapshot too — none was replayed, the platform is
		// untouched — so archive the stale segments and restore from the
		// snapshot alone; appends continue at the watermark. The early scan
		// is spent: the first attempt consumed or dropped it.
		if err := archiveCoveredSegments(walOpts.Dir); err != nil {
			return nil, nil, nil, res, err
		}
		eng, w, err = restore(nil)
	}
	res.TailReplay = time.Since(phase)
	if err != nil {
		return nil, nil, nil, res, fmt.Errorf("wal: boot: %w", err)
	}
	// Segments fully pruned (or archived) behind a snapshot leave the
	// append cursor short of the checkpoint; skip it forward — those seqs
	// are durable in the snapshot itself.
	if snap != nil && res.Recovered == 0 {
		w.SkipTo(snap.TakenAtSeq)
	}
	if got, want := w.LastSeq(), eng.Log().LastSeq(); got != want {
		w.Close()
		return nil, nil, nil, res, fmt.Errorf("wal: append cursor at seq %d but log ends at %d", got, want)
	}
	if err := trimBook(walOpts.Dir, mark.Bytes); err != nil {
		w.Close()
		return nil, nil, nil, res, err
	}
	return p, eng, w, res, nil
}
