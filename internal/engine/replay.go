package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/license"
)

// This file implements deterministic recovery: rebuilding an engine (and the
// platform under it) from a durable event log, optionally on top of a
// checkpoint. The replay invariant: applying the payload-carrying events of
// a log prefix, in order, to a fresh platform yields exactly the state —
// registries, catalog, open requests, micro-unit balances, settlement book,
// ID counters — the original process had when it appended the last record of
// that prefix. internal/wal supplies the log; cmd/dmgateway wires the boot
// sequence.

// Counters is the durable slice of engine statistics.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	Applied   uint64 `json:"applied"`
	Matched   uint64 `json:"matched"`
	Failed    uint64 `json:"failed"`
	// XTxCommitted and XTxAborted count a shard's home commits of
	// cross-shard sales and its xtx-aborted records.
	XTxCommitted uint64 `json:"xtx_committed,omitempty"`
	XTxAborted   uint64 `json:"xtx_aborted,omitempty"`
}

// RequestMetaState is the durable policy metadata of one open request.
// Aged records that the request's first policy deferral was already
// audit-logged, so a restore does not log it twice.
type RequestMetaState struct {
	RequestID   string `json:"request_id"`
	Participant string `json:"participant,omitempty"`
	Priority    int    `json:"priority,omitempty"`
	FiledEpoch  uint64 `json:"filed_epoch,omitempty"`
	FiledSeq    int    `json:"filed_seq,omitempty"`
	Aged        bool   `json:"aged,omitempty"`
}

// PolicyState is the durable slice of the admission/matching-policy layer:
// per-request policy metadata, canonical token-bucket levels, the epoch
// admission window and the audit counters. Everything here is also a pure
// function of the event stream; snapshots carry it so a pruned WAL can
// still boot into identical policy decisions.
type PolicyState struct {
	Requests      []RequestMetaState `json:"requests,omitempty"`
	Buckets       map[string]float64 `json:"buckets,omitempty"`
	EpochAdmitted int                `json:"epoch_admitted,omitempty"`
	Rejected      uint64             `json:"rejected,omitempty"`
	Aged          uint64             `json:"aged,omitempty"`
}

// SnapshotState is a point-in-time engine checkpoint: the platform snapshot
// plus the engine's own registries (tickets, open-request ownership, epoch
// and submission counters), the settlement book and the policy layer.
// Restores seed from it and replay only log events with Seq > TakenAtSeq.
//
// Tickets lists the tickets the engine held — the non-terminal ones by
// ticket number, then the done window in the order its tickets turned
// terminal, which is the order they will retire in — and TicketsRetired how
// many older terminal tickets had already left it, so a checkpoint is not
// O(lifetime submissions). Snapshots from before the window existed list
// every ticket by number (and no TicketsRetired); they load the same way and
// are trimmed to the window. The "tickets" JSON key is how older snapshot
// files carry the list: wal.WriteSnapshot writes it after the JSON instead,
// as binary records (the window is most of a checkpoint), and wal's reader
// loads either form.
//
// Book is the settlement book's cut: its archived mark plus the entries past
// it, shared with the book, not copied, so the cut under the epoch lock stays
// O(1) in the book's length. It has no JSON form of its own: wal.WriteSnapshot
// appends the entries past the mark to the directory's book archive and
// writes only the extended mark, and wal.Boot hands Restore a cut of that
// mark alone.
type SnapshotState struct {
	TakenAt        time.Time              `json:"taken_at"`
	TakenAtSeq     int                    `json:"taken_at_seq"`
	Epoch          uint64                 `json:"epoch"`
	SubmitSeq      uint64                 `json:"submit_seq"`
	Platform       *core.PlatformSnapshot `json:"platform"`
	Tickets        []Ticket               `json:"tickets,omitempty"`
	TicketsRetired uint64                 `json:"tickets_retired,omitempty"`
	OpenReqs       map[string]string      `json:"open_reqs,omitempty"` // request ID -> ticket
	Book           ledger.BookCut         `json:"-"`
	Counters       Counters               `json:"counters"`
	Policy         *PolicyState           `json:"policy,omitempty"`
	// CrossWants are the open cross-shard wants, in filing order, and
	// XTxApplied the newest remote leg logged per xid stream (see xtx.go).
	// A checkpoint holds no prepared sale, and forgets the home commits
	// before it: the federation cuts only once every remote leg is logged.
	CrossWants []CrossWant       `json:"cross_wants,omitempty"`
	XTxApplied map[string]uint64 `json:"xtx_applied,omitempty"`
}

// Snapshot captures a consistent checkpoint. It holds the epoch lock, so no
// epoch is mid-flight — and the settlement book, folded at each append, is at
// the log head — then snapshots platform and engine registries as one cut. Only the
// cut holds the lock: encoding and writing it (wal.WriteSnapshot) happen after.
// Intake queued behind the lock is not part of the checkpoint — it has no
// events yet, so it is not durable until its epoch runs; its tickets are
// likewise excluded, and clients re-submit after a restore (the submission
// counter excludes queued intake too, so re-submissions get their original
// ticket IDs back).
//
// A checkpoint must never claim state it cannot restore, so Snapshot fails
// instead of silently losing data when the WAL is wedged or behind the log
// head — the checkpoint would cover events lost on restart. Pending ex-post
// settlements do not refuse anymore: their escrowed deposits are serialized
// into the platform snapshot (core.PlatformSnapshot.PendingExPost) and
// restored exactly, so a checkpoint can be taken while buyers still owe
// their value reports.
func (e *Engine) Snapshot() (*SnapshotState, error) {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()

	seq := e.log.LastSeq()
	if e.log.durable() {
		persisted, perr := e.log.Persisted()
		if perr != nil {
			return nil, fmt.Errorf("engine: snapshot refused, persister wedged: %w", perr)
		}
		if persisted < seq {
			return nil, fmt.Errorf("engine: snapshot refused, WAL at seq %d behind log head %d", persisted, seq)
		}
	}
	if n := len(e.xtxHeld); n > 0 {
		// A prepare's generic ledger escrow is not part of the platform
		// checkpoint (unlike ex-post escrows, which PendingExPost carries);
		// snapshotting mid-2PC would destroy the held funds on restore. The
		// federation layer only snapshots under its coordinator lock, where
		// no transaction is between prepare and its terminal record.
		return nil, fmt.Errorf("engine: snapshot refused, %d cross-shard escrow(s) in flight", n)
	}
	snap := &SnapshotState{
		TakenAt:    time.Now(),
		TakenAtSeq: seq,
		Epoch:      e.epoch.Load(),
		SubmitSeq:  e.appliedSeq,
		Platform:   e.platform.Snapshot(),
		OpenReqs:   map[string]string{},
		Book:       e.book.Cut(),
		Counters: Counters{
			Applied:      e.stApplied.Load(),
			Matched:      e.stMatched.Load(),
			Failed:       e.stFailed.Load(),
			XTxCommitted: e.stXCommitted.Load(),
			XTxAborted:   e.stXAborted.Load(),
		},
		XTxApplied: maps.Clone(e.xtxApplied),
	}
	for _, seq := range slices.Sorted(maps.Keys(e.xwants)) {
		snap.CrossWants = append(snap.CrossWants, *e.xwants[seq])
	}
	for id, t := range e.openReqs {
		snap.OpenReqs[id] = t
	}
	e.tmu.Lock()
	var applied []uint64
	for seq, t := range e.tickets {
		// Queued intake has no events yet and is not durable; after a
		// restore its clients re-submit. Excluding it here (and from
		// SubmitSeq above) guarantees re-submissions get their original
		// ticket IDs, exactly like the no-snapshot replay path.
		if t.status == heldApplied {
			applied = append(applied, seq)
		}
	}
	slices.Sort(applied)
	snap.Tickets = make([]Ticket, 0, len(applied)+e.done.len())
	for _, seq := range applied {
		snap.Tickets = append(snap.Tickets, e.tickets[seq].ticket(seq))
	}
	e.done.all(func(seq uint64, t heldTicket) bool {
		snap.Tickets = append(snap.Tickets, t.ticket(seq))
		return true
	})
	snap.TicketsRetired = e.retired
	e.tmu.Unlock()
	// Submitted counts what the checkpoint covers: every ticket that ever
	// left the queue, held here or retired since.
	snap.Counters.Submitted = snap.TicketsRetired + uint64(len(snap.Tickets))

	ps := &PolicyState{Rejected: e.stRejected.Load(), Aged: e.stAged.Load()}
	for id := range e.openReqs {
		if m := e.reqMeta[id]; m != nil {
			ps.Requests = append(ps.Requests, RequestMetaState{
				RequestID: id, Participant: m.participant, Priority: m.priority,
				FiledEpoch: m.filedEpoch, FiledSeq: m.filedSeq, Aged: m.aged,
			})
		}
	}
	sort.Slice(ps.Requests, func(i, j int) bool { return ps.Requests[i].RequestID < ps.Requests[j].RequestID })
	if e.adm != nil {
		ps.Buckets, ps.EpochAdmitted = e.adm.snapshotState()
	}
	snap.Policy = ps
	e.xtxCommits = nil
	return snap, nil
}

// EventSource streams a recovered event log to Restore: it calls yield with
// consecutive batches in seq order (wal.Boot hands over one WAL segment at a
// time) and stops at the first error either side returns.
type EventSource func(yield func([]Event) error) error

// ErrLogBehindCheckpoint is Restore's refusal to continue a recovered log
// that ends short of the checkpoint: appending to it would reuse seqs the
// snapshot covers. Nothing was replayed, so the caller can drop the stale
// segments and restore the same platform from the snapshot alone (wal.Boot
// does).
var ErrLogBehindCheckpoint = errors.New("engine: recovered log ends short of the checkpoint")

// Restore rebuilds an engine from a recovered event log, optionally on top
// of a checkpoint. The caller builds the platform first — from
// core.RestorePlatform(opts, snap.Platform) when a snapshot exists, else
// core.NewPlatform — and streams every recovered event through src. Events
// up to snap.TakenAtSeq only move the log's head; later ones are also
// applied to the platform, the engine's registries and the settlement book
// (restored from snap.Book, reading its archived prefix through
// cfg.BookArchive),
// batch by batch. The log holds none of them: it starts at the recovered
// head, encodes nothing, and older cursors read back from cfg.Persister
// (attached up front, never written to here). The engine is returned stopped.
//
// Non-replayable records — a request-filed event whose payload was a code
// task — leave their request lost; everything the dmms wire surface can
// express replays exactly.
func Restore(p *core.Platform, cfg Config, snap *SnapshotState, src EventSource) (*Engine, error) {
	watermark := 0
	if snap != nil {
		watermark = snap.TakenAtSeq
	}
	var (
		e         *Engine
		epoch     uint64
		submitSeq uint64
		counters  Counters
	)
	// start builds the engine once the log's base — the seq before the first
	// recovered event — is known, and seeds it from the checkpoint.
	start := func(base int) error {
		if base > watermark {
			return fmt.Errorf("engine: recovered events start at seq %d but checkpoint covers only %d", base+1, watermark)
		}
		var cut ledger.BookCut
		if snap != nil {
			cut = snap.Book
		}
		book, err := ledger.RestoreSettlementBook(cut, cfg.BookArchive)
		if err != nil {
			return err
		}
		e = newEngine(p, cfg, NewEventLogAt(base), book)
		if cfg.Persister != nil {
			e.log.SetPersister(cfg.Persister)
		}
		if snap == nil {
			return nil
		}
		epoch, submitSeq, counters = snap.Epoch, snap.SubmitSeq, snap.Counters
		// Terminal tickets join the ticket window in the order listed; a
		// pre-window snapshot holds every ticket ever issued and is trimmed.
		e.retired = snap.TicketsRetired
		for _, t := range snap.Tickets {
			seq, held, err := holdTicket(t)
			if err != nil {
				return err
			}
			if !held.terminal() {
				e.tickets[seq] = held
				continue
			}
			e.done.push(seq, held)
			e.retireLocked()
		}
		for id, ticket := range snap.OpenReqs {
			e.openReqs[id] = ticket
		}
		for _, w := range snap.CrossWants {
			e.xwants[ticketSeq(w.Ticket)] = &w
		}
		e.xwantsN.Store(int64(len(e.xwants)))
		maps.Copy(e.xtxApplied, snap.XTxApplied)
		if ps := snap.Policy; ps != nil {
			for _, rm := range ps.Requests {
				e.reqMeta[rm.RequestID] = &reqMeta{
					participant: rm.Participant, priority: rm.Priority,
					filedEpoch: rm.FiledEpoch, filedSeq: rm.FiledSeq, aged: rm.Aged,
				}
			}
			e.stRejected.Store(ps.Rejected)
			e.stAged.Store(ps.Aged)
			if e.adm != nil {
				e.adm.restoreState(ps.Buckets, ps.EpochAdmitted)
			}
		}
		return nil
	}

	err := src(func(batch []Event) error {
		if len(batch) == 0 {
			return nil
		}
		if e == nil {
			if err := start(batch[0].Seq - 1); err != nil {
				return err
			}
		}
		if err := e.log.seed(batch); err != nil {
			return err
		}
		for _, ev := range batch {
			if ev.Seq <= watermark {
				continue
			}
			if ev.Epoch > epoch {
				epoch = ev.Epoch
			}
			if n := ticketSeq(ev.Ticket); n > submitSeq {
				submitSeq = n
			}
			if err := e.replayEvent(ev, &counters); err != nil {
				return fmt.Errorf("engine: replay seq %d (%s): %w", ev.Seq, ev.Kind, err)
			}
		}
		return nil
	})
	if err == nil && e == nil {
		err = start(watermark) // nothing recovered: the log continues at the checkpoint
	}
	if err == nil && e.log.LastSeq() < watermark {
		err = fmt.Errorf("%w: seq %d < %d", ErrLogBehindCheckpoint, e.log.LastSeq(), watermark)
	}
	if err != nil {
		return nil, err
	}

	e.epoch.Store(epoch)
	e.seq = submitSeq
	e.appliedSeq = submitSeq
	counters.Submitted = e.retired + uint64(len(e.tickets)+e.done.len())
	e.stSubmitted.Store(counters.Submitted)
	e.stApplied.Store(counters.Applied)
	e.stMatched.Store(counters.Matched)
	e.stFailed.Store(counters.Failed)
	e.stXCommitted.Store(counters.XTxCommitted)
	e.stXAborted.Store(counters.XTxAborted)
	e.stMatchedAtBoot = counters.Matched
	return e, nil
}

// replayEvent applies one recovered event: platform mutation plus ticket,
// counter and settlement-book bookkeeping. It mirrors apply/publishRound
// without re-running matching — the log already fixes every outcome.
func (e *Engine) replayEvent(ev Event, c *Counters) error {
	seq := ticketSeq(ev.Ticket)
	if ev.Ticket != "" && (seq == 0 || ev.Kind == EventRejected && !slices.Contains(ticketKinds[:], ev.SubKind)) {
		return fmt.Errorf("cannot hold ticket %q of kind %q", ev.Ticket, ev.SubKind)
	}
	ensureTicket := func(kind SubmissionKind) {
		if _, ok := e.tickets[seq]; !ok && seq != 0 && !e.done.has(seq) {
			e.tickets[seq] = &heldTicket{kind: uint8(slices.Index(ticketKinds[:], kind)), status: heldQueued,
				participant: ev.Participant}
		}
	}
	switch ev.Kind {
	case EventRegistered:
		if err := e.platform.RegisterParticipant(ev.Participant, ev.Price); err != nil {
			return err
		}
		c.Applied++
		ensureTicket(KindRegister)
		e.setTicket(seq, func(t *heldTicket) { t.status, t.epoch = heldDone, ev.Epoch })

	case EventDatasetShared:
		if ev.Payload == nil || ev.Payload.Relation == nil || ev.Payload.Meta == nil {
			return fmt.Errorf("dataset-shared event without payload")
		}
		terms := license.Terms{Kind: license.Kind(ev.Payload.License), ExclusivityTaxRate: ev.Payload.TaxRate}
		if err := e.platform.ShareDataset(ev.Participant, catalog.DatasetID(ev.Dataset),
			ev.Payload.Relation, *ev.Payload.Meta, terms); err != nil {
			return err
		}
		c.Applied++
		ensureTicket(KindShare)
		e.setTicket(seq, func(t *heldTicket) { t.status, t.epoch = heldDone, ev.Epoch })

	case EventRequestFiled:
		ensureTicket(KindRequest)
		// Replay mirrors apply(): exactly one canonical quota consumption
		// per admitted request, in event order.
		if e.adm != nil {
			e.adm.replayCommit(ev.Participant)
		}
		if ev.CrossShard {
			c.Applied++
			return e.replayCrossWant(ev, seq)
		}
		if ev.Payload == nil || ev.Payload.Request == nil {
			// Code-task request: not durable. The ticket survives but its
			// request is gone; mark it failed so pollers see a terminal state.
			e.setTicket(seq, func(t *heldTicket) {
				t.status, t.epoch, t.priority = heldFailed, ev.Epoch, int32(ev.Priority)
				t.err = "engine: request not replayable (code task)"
			})
			c.Failed++
			return nil
		}
		want, f, err := ev.Payload.Request.Decode()
		if err != nil {
			return err
		}
		if err := e.platform.Arbiter.RestoreRequest(ev.RequestID, want, f); err != nil {
			return err
		}
		c.Applied++
		e.openReqs[ev.RequestID] = ev.Ticket
		e.reqMeta[ev.RequestID] = &reqMeta{participant: ev.Participant, priority: ev.Priority, filedEpoch: ev.Epoch, filedSeq: ev.Seq}
		e.setTicket(seq, func(t *heldTicket) {
			t.status, t.epoch, t.requestID, t.priority = heldApplied, ev.Epoch, ev.RequestID, int32(ev.Priority)
		})

	case EventTxSettled:
		if err := e.platform.ReplaySettlement(arbiter.ReplayedSettlement{
			TxID:         ev.TxID,
			RequestID:    ev.RequestID,
			Buyer:        ev.Participant,
			Price:        ev.Price,
			ArbiterCut:   ev.ArbiterCut,
			SellerCuts:   ev.SellerCuts,
			Satisfaction: ev.Satisfaction,
			Datasets:     ev.Datasets,
			ExPost:       ev.ExPost,
			ExPostShares: ev.ExPostShares,
		}); err != nil {
			return err
		}
		c.Matched++
		e.recordSale(&ev)
		delete(e.openReqs, ev.RequestID)
		delete(e.reqMeta, ev.RequestID)
		ensureTicket(KindRequest)
		e.setTicket(seq, func(t *heldTicket) {
			t.status, t.txID, t.price, t.matchedEpoch = heldDone, ev.TxID, ev.Price, ev.Epoch
		})

	case EventValueReported:
		if err := e.platform.ReplayReport(arbiter.ReplayedReport{
			TxID:       ev.TxID,
			Paid:       ev.Price,
			ArbiterCut: ev.ArbiterCut,
			SellerCuts: ev.SellerCuts,
		}); err != nil {
			return err
		}
		c.Applied++
		e.recordSale(&ev)
		ensureTicket(KindReport)
		e.setTicket(seq, func(t *heldTicket) {
			t.status, t.epoch, t.txID, t.price = heldDone, ev.Epoch, ev.TxID, ev.Price
			t.participant = ev.Participant
		})

	case EventRejected:
		if ev.Ticket != "" {
			ensureTicket(ev.SubKind)
			if ev.SubKind == KindRequest && e.adm != nil {
				// The request was admitted and consumed quota before apply
				// rejected it — same accounting as the live path.
				e.adm.replayCommit(ev.Participant)
			}
			c.Failed++
			e.setTicket(seq, func(t *heldTicket) {
				t.status, t.epoch, t.err, t.priority = heldFailed, ev.Epoch, ev.Err, int32(ev.Priority)
			})
		}

	case EventRequestRejected:
		if ev.Count > 0 {
			e.stRejected.Add(ev.Count)
		} else {
			e.stRejected.Add(1) // pre-aggregation records: one each
		}

	case EventRequestAged:
		e.stAged.Add(1)
		if m := e.reqMeta[ev.RequestID]; m != nil {
			m.aged = true // first deferral already logged; never log it twice
		}

	case EventEpochEnd:
		// The epoch boundary: demand-signal increments commit and the
		// admission window refills by the recorded quantum, exactly like
		// the live endEpoch (0 = the omitted full-quantum default).
		e.platform.AddUnmet(ev.UnmetColumns)
		if e.adm != nil {
			e.adm.refill(ev.QuotaRefill)
		}

	case EventXTxPrepared, EventXTxCommitted, EventXTxAborted:
		return e.replayXTx(ev, c)

	case EventEpochStart, EventRequestUnmet:
		// Structural markers; no platform mutation to replay.
	}
	return nil
}
