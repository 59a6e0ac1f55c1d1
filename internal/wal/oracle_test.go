package wal

// The transparency oracle: an engine that keeps only a 64-event tail of its
// log in memory must be indistinguishable — on every cursor, through
// WaitAfter, and in everything derived from the log — from one that keeps it
// all. A seeded random script (late supply, standing open requests,
// rejections) is driven through two WAL-backed engines that differ only in
// the tail, one after the other, across segment rotations, two checkpoints
// with pruning, and a reboot of each. The engine-free half (random appends against a fake
// persister) is internal/engine's TestEventLogTailOracle.
//
// Fixed seeds keep CI deterministic; EVENTLOG_ORACLE_EXTRA_SEEDS=N adds N
// time-derived ones (every seed is in its subtest's name and its failures).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/retain"
)

func oracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2}
	if v := os.Getenv("EVENTLOG_ORACLE_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad EVENTLOG_ORACLE_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

// oracleScript generates epochs of ops: four buyers, then a random mix of
// requests for one of five columns and shares of datasets providing one of
// them — so each column's supply first appears some epochs after its demand
// (requests stand open and settle late, after tickets numbered above them,
// often in an epoch that files nothing new) — while some offers sit below
// the posted price forever and some submissions are rejected.
func oracleScript(rng *rand.Rand) [][]op {
	sc := [][]op{{
		{kind: "register", name: "b0", funds: 1e6}, {kind: "register", name: "b1", funds: 1e6},
		{kind: "register", name: "b2", funds: 1e6}, {kind: "register", name: "b3", funds: 1e6},
	}}
	shares := 0
	for ep := 1; ep < 28; ep++ {
		var ops []op
		for n := 1 + rng.Intn(4); n > 0; n-- {
			buyer := fmt.Sprintf("b%d", rng.Intn(4))
			col := fmt.Sprintf("v%d", 1+rng.Intn(5))
			switch r := rng.Intn(10); {
			case r < 5:
				ops = append(ops, op{kind: "request", name: buyer, offer: float64(80 + rng.Intn(120)), cols: []string{"k", col}})
			case r < 7 && ep > 2:
				shares++
				ops = append(ops, op{kind: "share", name: fmt.Sprintf("s%d", shares%3), ds: fmt.Sprintf("s%d/d%d", shares%3, shares),
					valCol: col, rows: 10 + rng.Intn(20)})
			case r == 7:
				ops = append(ops, op{kind: "request", name: buyer, offer: 50, cols: []string{"never", "supplied"}})
			case r == 8:
				ops = append(ops, op{kind: "register", name: buyer, funds: 1}) // duplicate: rejected
			default:
				ops = append(ops, op{kind: "request", name: "ghost", offer: 150, cols: []string{"k", col}})
			}
		}
		sc = append(sc, ops)
	}
	return sc
}

// oracleSide is one of the two engines under comparison.
type oracleSide struct {
	dir string
	p   *core.Platform
	e   *engine.Engine
	w   *Log
}

// boot (re)opens the side's directory under whatever windows are in force.
func (s *oracleSide) boot(t *testing.T) {
	t.Helper()
	var err error
	s.p, s.e, s.w, _, err = Boot(core.Options{Design: testDesign}, engine.Config{},
		Options{Dir: s.dir, Policy: SyncEpoch, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
}

func (s *oracleSide) checkpoint(t *testing.T) {
	t.Helper()
	snap, err := s.e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(s.dir, snap); err != nil {
		t.Fatal(err)
	}
	if err := PruneAfterSnapshot(s.dir, s.w, true); err != nil {
		t.Fatal(err)
	}
}

// wire is the JSON an event travels as (over /events and into the WAL), minus
// its wall-clock stamp — the one field two engines fed the same script cannot
// share. (That the stamp, too, reads the same from memory and from disk is
// checked on the trimmed engine alone, against its own WAL.)
func wire(t *testing.T, ev engine.Event) []byte {
	t.Helper()
	ev.At = time.Time{}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// settledBook reads a live engine's settlement book once it holds every
// settlement the log does. The book is folded in by a subscriber of its own
// that may still trail the log head after an epoch returns; Snapshot waits for
// it, Settlements does not.
func settledBook(t *testing.T, e *engine.Engine) []ledger.Settlement {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return bookEntries(t, snap.Book)
}

// oracleRef is what the untrimmed engine showed at one comparison point.
type oracleRef struct {
	stats    engine.Stats
	events   []engine.Event // Events(0)
	book     []ledger.Settlement
	balances map[string]ledger.Currency
}

// driveOracle drives the script through one WAL-backed engine under the
// windows in force — checkpoints with pruning after epochs 10 and 17 (settle
// runs first: PruneAfterSnapshot drops what the second-newest checkpoint
// covers, and any subscriber must catch up before the log under it is
// compacted), a reboot after epoch 22 — calling at at every comparison point.
// It returns the tickets issued and the final fingerprint.
func driveOracle(t *testing.T, s *oracleSide, sc [][]op, settle, at func(where string)) (tickets []string, print []byte) {
	t.Helper()
	s.boot(t)
	for i, epoch := range sc {
		for _, o := range epoch {
			tickets = append(tickets, submitOp(s.e, o))
		}
		s.e.TriggerEpoch()
		where := fmt.Sprintf("epoch %d", i+1)
		switch {
		case i == 9 || i == 16:
			settle(where)
			s.checkpoint(t)
			at(where + " after checkpoint")
		case i == 21:
			s.e.Stop()
			if err := s.w.Close(); err != nil {
				t.Fatal(err)
			}
			s.boot(t)
			at(where + " after reboot")
		case i == 5:
			settle(where)
			at(where)
		}
	}
	settle("end")
	at("end")
	s.e.Stop()
	s.w.Close()
	return tickets, fingerprint(t, s.p, s.e, true)
}

func TestEventLogTransparencyOracle(t *testing.T) {
	const tail = 64
	for _, seed := range oracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := oracleScript(rand.New(rand.NewSource(seed)))

			// The reference run: default windows, which a script this short
			// never crosses — the engine holds everything it appended or
			// replayed. (A reboot decodes only the segments its checkpoint
			// does not cover, so from then on the reference, too, serves older
			// cursors from disk.)
			whole, refs := &oracleSide{dir: t.TempDir()}, map[string]oracleRef{}
			wantTickets, wantPrint := driveOracle(t, whole, sc, func(string) {}, func(where string) {
				ref := oracleRef{stats: whole.e.Stats(), events: whole.e.Log().Since(0),
					book: settledBook(t, whole.e), balances: map[string]ledger.Currency{}}
				for _, acct := range whole.p.Arbiter.Ledger.Accounts() {
					ref.balances[acct] = whole.p.Arbiter.Ledger.Balance(acct)
				}
				refs[where] = ref
			})

			// The same script with a 64-event tail; nothing else differs.
			defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = tail, tail })()
			trimmed := &oracleSide{dir: t.TempDir()}

			// A WaitAfter follower on the trimmed log that drains only now and
			// then, so it keeps falling out of the tail.
			cursor := 0
			follow := func(where string) {
				evs, _ := trimmed.e.Log().WaitAfter(cursor)
				for _, ev := range evs {
					if ev.Seq != cursor+1 {
						t.Fatalf("seed %d %s: follower at %d got seq %d", seed, where, cursor, ev.Seq)
					}
					cursor = ev.Seq
				}
			}

			// compare checks the cursors in [0, head] against the reference.
			compare := func(where string) {
				st, want := trimmed.e.Stats(), refs[where]
				head, base := st.Events, st.Events-st.EventsHeld
				if wst := want.stats; wst.Events != head || wst.Matched != st.Matched ||
					wst.Submitted != st.Submitted || wst.Applied != st.Applied || wst.Failed != st.Failed {
					t.Fatalf("seed %d %s: counters diverge: %+v vs %+v", seed, where, st, wst)
				}
				// What the untrimmed engine served for cursor 0 is the reference;
				// a cursor the trimmed one must fetch from disk resumes at the
				// first seq its WAL still retains (segments pruned behind the
				// checkpoints are gone for good — the untrimmed engine only
				// still had them because it never let go of anything).
				ref := want.events
				if len(ref) == 0 {
					return
				}
				refWire := make([][]byte, len(ref))
				for i, ev := range ref {
					refWire[i] = wire(t, ev)
				}
				segs, err := segmentFiles(trimmed.dir)
				if err != nil || len(segs) == 0 {
					t.Fatalf("seed %d %s: no segments (%v)", seed, where, err)
				}
				// A cold cursor is served from disk as far back as the WAL still
				// has it, then from memory — which may reach back past a fresh
				// prune. The two directories rotate (and so prune) at slightly
				// different seqs, since stamps differ in length; after a reboot
				// the reference itself starts at its own first retained seq,
				// and content is compared over the overlap.
				avail := min(segmentFirstSeq(segs[0]), base+1)
				for after := 0; after <= head; after++ {
					if after < base-2 && after%4 != 0 && where != "end" {
						continue // cold reads re-decode the WAL: every cursor at the end, every fourth before
					}
					got := trimmed.e.Log().Since(after)
					first := after + 1
					if after < base {
						first = max(first, avail)
					}
					if len(got) != head-first+1 {
						t.Fatalf("seed %d %s: Events(%d) (base %d, available from %d) returned %d events, want seqs %d..%d",
							seed, where, after, base, avail, len(got), first, head)
					}
					// Which source serves seq s (disk iff s <= base) does not
					// depend on the cursor, so cursor 0 and the cursors around
					// the tail boundary get every event compared byte for byte
					// and the rest the seqs plus the batch's two ends.
					full := after%9 == 0 || after-base < 2 && base-after < 2
					for i, ev := range got {
						if ev.Seq != first+i {
							t.Fatalf("seed %d %s: Events(%d)[%d] has seq %d, want %d", seed, where, after, i, ev.Seq, first+i)
						}
						r := ev.Seq - ref[0].Seq
						if r >= 0 && (full || i == 0 || i == len(got)-1) && !bytes.Equal(wire(t, ev), refWire[r]) {
							t.Fatalf("seed %d %s: Events(%d)[%d] differs on the wire:\n%s\n%s", seed, where, after, i, wire(t, ev), refWire[r])
						}
					}
					if lo := max(first, ref[0].Seq); full && lo <= head { // and field by field, once both sides are in wire form
						g, w := slices.Clone(got[lo-first:]), slices.Clone(ref[lo-ref[0].Seq:])
						for i := range g {
							g[i].At, w[i].At = time.Time{}, time.Time{}
						}
						var gr, wr []engine.Event
						if json.Unmarshal(mustJSON(t, g), &gr) != nil || json.Unmarshal(mustJSON(t, w), &wr) != nil || !reflect.DeepEqual(gr, wr) {
							t.Fatalf("seed %d %s: Events(%d) not DeepEqual after the wire round trip", seed, where, after)
						}
					}
				}
				// The trimmed engine against its own WAL, stamps included: what it
				// serves from the WAL's first seq on — part disk, part memory —
				// is byte for byte what the log holds, but for the payloads,
				// which no reader gets.
				disk, err := Load(trimmed.dir)
				if err != nil {
					t.Fatal(err)
				}
				for i := range disk {
					disk[i].Payload = nil
				}
				served, onDisk := mustJSON(t, trimmed.e.Log().Since(segmentFirstSeq(segs[0])-1)), mustJSON(t, disk)
				if !bytes.Equal(served, onDisk) {
					t.Fatalf("seed %d %s: Events(0) is not the WAL's content (%d vs %d bytes)", seed, where, len(served), len(onDisk))
				}
				if !reflect.DeepEqual(settledBook(t, trimmed.e), want.book) {
					t.Fatalf("seed %d %s: settlement books diverge", seed, where)
				}
				for acct, b := range want.balances {
					if a := trimmed.p.Arbiter.Ledger.Balance(acct); a != b {
						t.Fatalf("seed %d %s: balance of %s: %v vs %v", seed, where, acct, a, b)
					}
				}
				if where != "end" {
					return
				}
				if cursor != head {
					t.Fatalf("seed %d: follower ended at %d, log at %d", seed, cursor, head)
				}
				if st.EventsHeld >= tail+tail || st.ReadBackEvents == 0 || st.PersistErr != "" {
					t.Fatalf("seed %d: tail not exercised as intended: %+v", seed, st)
				}
			}

			tickets, print := driveOracle(t, trimmed, sc, follow, compare)
			if !slices.Equal(tickets, wantTickets) {
				t.Fatalf("seed %d: tickets diverge: %v vs %v", seed, tickets, wantTickets)
			}
			if !bytes.Equal(print, wantPrint) {
				t.Fatalf("seed %d: final state diverges:\n--- trimmed\n%s\n--- whole\n%s", seed, print, wantPrint)
			}
		})
	}
}

// TestRetentionSurvivesCheckpointOracle is the same idea for the state a
// checkpoint carries: with every window forced tiny, an engine that is
// checkpointed (and its WAL pruned) at a random epoch and rebooted at a later
// one is compared, after every epoch from the reboot on, with one driven
// through the same random script uninterrupted — byte for byte, retained
// tickets and history included. In particular the restored engine must retire
// tickets in the order the uninterrupted one does, which the snapshot does
// not store but Restore re-derives (requests that stood open settle long
// after tickets numbered above them); a wrong order shows only until the
// checkpoint's tickets have all left the window, hence the lockstep.
func TestRetentionSurvivesCheckpointOracle(t *testing.T) {
	tinyWindows(t)
	// Seeds 3 and 10 reboot at a point where the window's terminal order and
	// its ticket-number order disagree and the next epochs retire only part
	// of it: restoring in ticket-number order fails them.
	for _, seed := range append([]int64{3, 10}, oracleSeeds(t)...) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sc := oracleScript(rng)
			snapAt := 4 + rng.Intn(len(sc)-8)
			rebootAt := snapAt + rng.Intn(3)

			straight, bounced := &oracleSide{dir: t.TempDir()}, &oracleSide{dir: t.TempDir()}
			straight.boot(t)
			bounced.boot(t)
			for i, epoch := range sc {
				for _, o := range epoch {
					submitOp(straight.e, o)
					submitOp(bounced.e, o)
				}
				straight.e.TriggerEpoch()
				bounced.e.TriggerEpoch()
				if i == snapAt-2 || i == snapAt { // two checkpoints, so the second one prunes
					bounced.checkpoint(t)
				}
				if i == rebootAt {
					bounced.e.Stop()
					if err := bounced.w.Close(); err != nil {
						t.Fatal(err)
					}
					bounced.boot(t)
				}
				if i >= rebootAt {
					want, got := fingerprint(t, straight.p, straight.e, true), fingerprint(t, bounced.p, bounced.e, true)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d (checkpoint after epoch %d, reboot after %d): diverged after epoch %d:\n--- uninterrupted\n%s\n--- rebooted\n%s",
							seed, snapAt+1, rebootAt+1, i+1, want, got)
					}
				}
			}
			if st := bounced.e.Stats(); st.TicketsRetired == 0 || st.HistoryHeld >= int(st.Matched) {
				t.Fatalf("seed %d: script crossed no window: %+v", seed, st)
			}
			sameCounters(t, straight.p, bounced.p, straight.e, bounced.e)
			for _, s := range []*oracleSide{straight, bounced} {
				s.e.Stop()
				s.w.Close()
			}
		})
	}
}
