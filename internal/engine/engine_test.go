package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

func testRelation(name string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*1.5))
	}
	return r
}

func coverageRequest(buyer string, offer float64) (dod.Want, *wtp.Function) {
	want := dod.Want{Columns: []string{"a", "b"}}
	f := &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
		Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: offer}},
	}
	return want, f
}

// mustTicket unwraps a Submit* result for tests with no admission control
// configured (where intake can never reject).
func mustTicket(id string, err error) string {
	if err != nil {
		panic(err)
	}
	return id
}

func newTestEngine(t *testing.T, cfg Config) (*core.Platform, *Engine) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	return p, New(p, cfg)
}

func waitTerminal(t *testing.T, e *Engine, tickets []string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		done := 0
		for _, id := range tickets {
			tk, ok := e.Ticket(id)
			if !ok {
				t.Fatalf("ticket %s vanished", id)
			}
			if tk.Status.Terminal() {
				done++
			}
		}
		if done == len(tickets) {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("only %d/%d tickets terminal after %v", done, len(tickets), deadline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineConcurrentEpochs is the -race hammer the issue asks for: 8
// concurrent submitters (4 sellers, 4 buyers) across 3 deterministic epochs,
// asserting ledger conservation (credits == debits) across all of them.
func TestEngineConcurrentEpochs(t *testing.T) {
	p, e := newTestEngine(t, Config{})
	defer e.Stop()

	const sellers, buyers, waves = 4, 4, 3
	funds := 10_000.0
	var initial ledger.Currency
	var regs []string
	for b := 0; b < buyers; b++ {
		regs = append(regs, mustTicket(e.SubmitRegister(fmt.Sprintf("buyer%d", b), funds)))
		initial += ledger.FromFloat(funds)
	}
	if _, ran := e.TriggerEpoch(); !ran {
		t.Fatal("registration epoch did not run")
	}
	waitTerminal(t, e, regs, time.Second)

	var allRequests []string
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var requests []string
		for s := 0; s < sellers; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				name := fmt.Sprintf("seller%d", s)
				id := catalog.DatasetID(fmt.Sprintf("%s/wave%d", name, wave))
				tk := mustTicket(e.SubmitShare(name, id, testRelation(string(id), 20),
					wtp.DatasetMeta{Dataset: string(id), HasProvenance: true},
					license.Terms{Kind: license.Open}))
				mu.Lock()
				requests = append(requests, tk)
				mu.Unlock()
			}(s)
		}
		for b := 0; b < buyers; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				want, fn := coverageRequest(fmt.Sprintf("buyer%d", b), 150)
				tk := mustTicket(e.SubmitRequest(want, fn))
				mu.Lock()
				requests = append(requests, tk)
				mu.Unlock()
			}(b)
		}
		wg.Wait()
		if _, ran := e.TriggerEpoch(); !ran {
			t.Fatalf("wave %d epoch did not run", wave)
		}
		waitTerminal(t, e, requests, 5*time.Second)
		allRequests = append(allRequests, requests...)
	}

	st := e.Stats()
	if st.Epochs < 3 {
		t.Fatalf("want >= 3 epochs, got %d", st.Epochs)
	}
	if st.Matched != buyers*waves {
		t.Fatalf("want %d matches, got %d", buyers*waves, st.Matched)
	}
	e.Stop() // flush + drain the settlement subscriber

	// Conservation, three ways. (1) money supply: nothing minted or burned
	// after the funding registrations.
	if got := p.Arbiter.Ledger.TotalSupply(); got != initial {
		t.Fatalf("total supply changed: want %s, got %s", initial, got)
	}
	// (2) per-settlement: price fully fanned out to arbiter + sellers.
	book := e.Settlements()
	if book.Cut().Count() != buyers*waves {
		t.Fatalf("settlement book has %d entries, want %d", book.Cut().Count(), buyers*waves)
	}
	if !book.Cut().Conserved() {
		t.Fatalf("settlement conservation violated: debits=%s credits=%s",
			book.Debits(), book.Credits())
	}
	epochs := map[uint64]bool{}
	if err := book.Cut().Each(func(s ledger.Settlement) error { epochs[s.Epoch] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(epochs) < waves {
		t.Fatalf("settlements span %d epochs, want >= %d", len(epochs), waves)
	}
	// (3) the hash-chained audit log is intact.
	if i := p.Arbiter.Ledger.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupted at entry %d", i)
	}

	// Event log sanity: dense, ordered sequence numbers.
	evs := e.Log().Since(0)
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestDrainTakesSeqPrefix: submitters race a drain loop, and every drained
// batch is the run of seqs right after the previous one, so an epoch never
// applies a submission before one numbered earlier.
func TestDrainTakesSeqPrefix(t *testing.T) {
	_, e := newTestEngine(t, Config{})
	const submitters, each = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mustTicket(e.SubmitRegister(fmt.Sprintf("p%d-%d", g, i), 1))
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	var drained uint64
	for done := false; !done; {
		select {
		case <-finished:
			done = true // one more drain takes what is left
		default:
		}
		e.epochMu.Lock()
		prev := e.appliedSeq
		batch := e.drain()
		for i, s := range batch {
			if s.seq != prev+1+uint64(i) {
				e.epochMu.Unlock()
				t.Fatalf("batch after seq %d holds seq %d at %d, want %d", prev, s.seq, i, prev+1+uint64(i))
			}
		}
		if n := len(batch); n > 0 && e.appliedSeq != batch[n-1].seq {
			t.Errorf("appliedSeq = %d after a batch ending at %d", e.appliedSeq, batch[n-1].seq)
		}
		e.epochMu.Unlock()
		if p := e.Stats().Pending; p < 0 {
			t.Fatalf("pending = %d", p)
		}
		drained += uint64(len(batch))
	}
	if drained != submitters*each || e.appliedSeq != drained {
		t.Fatalf("drained %d up to seq %d, want %d", drained, e.appliedSeq, submitters*each)
	}
}

// TestEngineTickerEpochs exercises the background loop: ticker-driven epochs
// with threshold kicks, submissions racing the runner.
func TestEngineTickerEpochs(t *testing.T) {
	p, e := newTestEngine(t, Config{EpochEvery: 2 * time.Millisecond, BatchThreshold: 64})
	e.Start()
	defer e.Stop()

	regTicket := mustTicket(e.SubmitRegister("b1", 5000))
	shareTicket := mustTicket(e.SubmitShare("s1", "s1/d1", testRelation("s1/d1", 10),
		wtp.DatasetMeta{Dataset: "s1/d1"}, license.Terms{Kind: license.Open}))
	waitTerminal(t, e, []string{regTicket, shareTicket}, 2*time.Second)

	var tickets []string
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				want, fn := coverageRequest("b1", 120)
				tk := mustTicket(e.SubmitRequest(want, fn))
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	waitTerminal(t, e, tickets, 5*time.Second)
	e.Stop()

	if st := e.Stats(); st.Matched != 32 {
		t.Fatalf("want 32 matches, got %d", st.Matched)
	}
	if i := p.Arbiter.Ledger.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupted at entry %d", i)
	}
	if !e.Settlements().Cut().Conserved() {
		t.Fatal("settlement conservation violated")
	}
}

// TestEngineRequestWaitsForSupply checks the cross-epoch retry: a request
// filed before any matching supply stays open (unmet) and clears in a later
// epoch once a seller shares the data.
func TestEngineRequestWaitsForSupply(t *testing.T) {
	_, e := newTestEngine(t, Config{})
	defer e.Stop()

	reg := mustTicket(e.SubmitRegister("b1", 1000))
	e.TriggerEpoch()
	waitTerminal(t, e, []string{reg}, time.Second)

	want, fn := coverageRequest("b1", 200)
	reqTicket := mustTicket(e.SubmitRequest(want, fn))
	e.TriggerEpoch()
	tk, _ := e.Ticket(reqTicket)
	if tk.Status != TicketApplied {
		t.Fatalf("request should be open after epoch without supply, got %s", tk.Status)
	}
	unmet := false
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventRequestUnmet && ev.Ticket == reqTicket {
			unmet = true
		}
	}
	if !unmet {
		t.Fatal("no request-unmet event for the starved request")
	}

	e.SubmitShare("s1", "s1/late", testRelation("s1/late", 10),
		wtp.DatasetMeta{Dataset: "s1/late"}, license.Terms{Kind: license.Open})
	e.TriggerEpoch()
	tk, _ = e.Ticket(reqTicket)
	if tk.Status != TicketDone || tk.TxID == "" {
		t.Fatalf("request should have matched once supply arrived, got %+v", tk)
	}
}

// TestEngineRejections covers the failure lifecycle: unknown buyers and
// duplicate registrations fail their tickets with events, without wedging
// the epoch.
func TestEngineRejections(t *testing.T) {
	_, e := newTestEngine(t, Config{})
	defer e.Stop()

	want, fn := coverageRequest("ghost", 100)
	ghost := mustTicket(e.SubmitRequest(want, fn))
	ok := mustTicket(e.SubmitRegister("b1", 100))
	dup := mustTicket(e.SubmitRegister("b1", 100))
	e.TriggerEpoch()

	if tk, _ := e.Ticket(ghost); tk.Status != TicketFailed {
		t.Fatalf("unregistered buyer's request should fail, got %s", tk.Status)
	}
	if tk, _ := e.Ticket(ok); tk.Status != TicketDone {
		t.Fatalf("first registration should succeed, got %s", tk.Status)
	}
	if tk, _ := e.Ticket(dup); tk.Status != TicketFailed || tk.Err == "" {
		t.Fatalf("duplicate registration should fail with an error, got %+v", tk)
	}
	rejected := 0
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventRejected {
			rejected++
		}
	}
	if rejected != 2 {
		t.Fatalf("want 2 submission-rejected events, got %d", rejected)
	}
}

func TestEventLogWaitAfter(t *testing.T) {
	l := NewEventLog()
	got := make(chan []Event, 1)
	go func() {
		evs, _ := l.WaitAfter(0)
		got <- evs
	}()
	time.Sleep(5 * time.Millisecond)
	l.Append(Event{Kind: EventEpochStart, Epoch: 1})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Seq != 1 {
			t.Fatalf("unexpected batch %+v", evs)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitAfter never woke")
	}

	l.Append(Event{Kind: EventEpochEnd, Epoch: 1})
	l.Close()
	evs, open := l.WaitAfter(1)
	if open {
		t.Fatal("log should report closed")
	}
	if len(evs) != 1 || evs[0].Kind != EventEpochEnd {
		t.Fatalf("tail not drained: %+v", evs)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("want 2 events, got %d", l.LastSeq())
	}
}

// TestHeldTicket: the ticket window holds a ticket in at most 96 B, without
// its ID; the public form round-trips through it, only ticketID's
// own IDs parse back to a seq, and Restore refuses a checkpoint ticket the
// window cannot hold, naming the value.
func TestHeldTicket(t *testing.T) {
	if n := unsafe.Sizeof(heldTicket{}); n > 96 {
		t.Errorf("heldTicket is %d B, want <= 96", n)
	}
	for id, want := range map[string]uint64{"sub-000001": 1, "sub-999999": 999999, "sub-1000000": 1000000,
		"sub-000000": 0, "sub-0000001": 0, "sub-00001": 0, "sub-+00001": 0, "s0:sub-000001": 0, "x:000001": 0} {
		if got := ticketSeq(id); got != want {
			t.Errorf("ticketSeq(%q) = %d, want %d", id, got, want)
		}
	}
	want := Ticket{ID: "sub-1234567", Kind: KindRequest, Status: TicketDone, Participant: "b1", Epoch: 3,
		RequestID: "req-0001", TxID: "tx-0001", Price: 100, Priority: PriorityHigh, MatchedEpoch: 4, Err: "e"}
	if seq, held, err := holdTicket(want); err != nil || seq != 1234567 || held.ticket(seq) != want {
		t.Fatalf("held %+v as seq %d (%v), back as %+v", want, seq, err, held.ticket(seq))
	}
	for _, c := range []struct {
		edit func(*Ticket)
		want string
	}{
		{func(tk *Ticket) { tk.Kind = "bogus" }, `kind "bogus"`},
		{func(tk *Ticket) { tk.Status = TicketRetired }, `status "retired"`},
		{func(tk *Ticket) { tk.ID = "sub-01" }, `ticket "sub-01"`},
		{func(tk *Ticket) { tk.Priority = 1 << 40 }, "priority 1099511627776"},
	} {
		bad := want
		c.edit(&bad)
		p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(p, Config{}, &SnapshotState{Tickets: []Ticket{bad}}, sliceSource(nil)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("restoring %+v: %v, want an error naming %s", bad, err, c.want)
		}
	}
}

// TestTicketBytesAfterChurn pins what a held ticket costs once the window has
// churned: ten and a half windows' worth of tickets pass through a full one
// (so it ends between two rebuilds), and the live heap per held ticket, after
// a forced GC, must stay at most 150 B. It measures 143 B; a map that is never
// rebuilt keeps the slots its deletes empty and measures 178 B.
func TestTicketBytesAfterChurn(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	w := retain.Sizes().Tickets
	before := heap()
	e := &Engine{tickets: map[uint64]*heldTicket{}}
	for seq := uint64(1); seq <= uint64(11*w+w/2); seq++ {
		e.tmu.Lock()
		e.tickets[seq] = &heldTicket{status: heldQueued, participant: "b1"}
		e.tmu.Unlock()
		e.setTicket(seq, func(t *heldTicket) { t.status = heldDone })
	}
	after := heap()
	runtime.KeepAlive(e)
	if len(e.tickets) != w || e.retired != uint64(10*w+w/2) {
		t.Fatalf("window holds %d tickets, retired %d", len(e.tickets), e.retired)
	}
	per := (float64(after) - float64(before)) / float64(w)
	t.Logf("%.1f B per held ticket", per)
	if per > 150 {
		t.Errorf("a held ticket costs %.1f B after churn, want <= 150", per)
	}
}
