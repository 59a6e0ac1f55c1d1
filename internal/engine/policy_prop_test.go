package engine_test

// The property-based fairness harness: seeded randomized workloads — a hot
// participant flooding the intake next to a handful of background buyers
// with mixed priority classes — are driven through the engine under every
// matching policy, asserting the invariants the admission/policy layer
// promises:
//
//  1. liveness: once arrivals stop, every admitted request drains (no
//     policy strands an open request forever when capacity exists);
//  2. bounded waiting under starvation aging: no admitted request waits
//     more than K epochs, where K is derived from the class gap, the age
//     boost, the peak backlog and the per-epoch cap;
//  3. quota accounting: per-participant admissions never exceed
//     burst + rate * (counted epochs), and every rejection is a typed
//     OverloadError with a retry-after hint;
//  4. conservation: the settlement book balances and the ledger audit
//     chain verifies, flood or not;
//  5. determinism: crashing the WAL at an arrival boundary, rebooting and
//     re-driving the lost suffix reproduces the uninterrupted run's event
//     stream and final state byte-for-byte — admission decisions, deferral
//     (request-aged) records and match order included.
//
// The fixed seed matrix keeps CI deterministic; POLICY_PROP_EXTRA_SEEDS=N
// adds N time-derived seeds as a randomized budget (seeds are logged for
// reproduction).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wtp"
)

const propDesign = "posted-baseline" // PostedPrice{P: 100}: offers >= 100 always clear

// --- deterministic workload generation --------------------------------------

// prng is splitmix64: tiny, seedable, good enough to diversify workloads.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z^(z>>27))*0x94d49b3b0a0e97b3 ^ 0xd6e8feb86659fd93
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

type propBuyer struct {
	name     string
	priority int
	perEpoch int // requests submitted per arrival round
}

type propWorkload struct {
	seed          uint64
	buyers        []propBuyer
	arrivalRounds int
	cap           int     // per-epoch matching-round cap
	quota         float64 // per-participant admissions per epoch
	burst         float64
}

func workloadFor(seed uint64) propWorkload {
	r := &prng{s: seed}
	nb := 3 + r.intn(3)
	buyers := make([]propBuyer, nb)
	for i := range buyers {
		rate := r.intn(3)
		if i == 0 {
			rate = 3 + r.intn(3) // the hot participant
		}
		buyers[i] = propBuyer{
			name:     fmt.Sprintf("b%02d", i),
			priority: r.intn(3), // PriorityLow..PriorityHigh
			perEpoch: rate,
		}
	}
	quota := float64(2 + r.intn(3))
	return propWorkload{
		seed:          seed,
		buyers:        buyers,
		arrivalRounds: 8 + r.intn(5),
		cap:           1 + r.intn(3),
		quota:         quota,
		burst:         quota + float64(r.intn(3)),
	}
}

func (wl propWorkload) maxPerEpoch() int {
	total := 0
	for _, b := range wl.buyers {
		total += b.perEpoch
	}
	return total
}

func propConfig(t *testing.T, policyName string, wl propWorkload) engine.Config {
	t.Helper()
	pol, err := engine.ParsePolicy(policyName, 1)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Config{
		Policy:        pol,
		EpochMatchCap: wl.cap,
		Admission:     engine.AdmissionConfig{QuotaPerEpoch: wl.quota, QuotaBurst: wl.burst},
	}
}

// --- driver ------------------------------------------------------------------

func propRelation() *relation.Relation {
	r := relation.New("seller/d0", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
	for i := 0; i < 20; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

func propRequest(buyer string) (dod.Want, *wtp.Function) {
	want := dod.Want{Columns: []string{"a", "b"}}
	f := &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
		Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 500}},
	}
	return want, f
}

// mustTk unwraps a Submit* result where admission cannot reject.
func mustTk(id string, err error) string {
	if err != nil {
		panic(err)
	}
	return id
}

type runStats struct {
	tickets  []string // request tickets that were admitted
	rejected int
	peakOpen int
}

func (st *runStats) trackPeak(e *engine.Engine) {
	if open := e.Stats().OpenRequests; open > st.peakOpen {
		st.peakOpen = open
	}
}

// propSetup funds all buyers and shares the dataset, in one epoch.
func propSetup(t *testing.T, e *engine.Engine, wl propWorkload) {
	t.Helper()
	for _, b := range wl.buyers {
		mustTk(e.SubmitRegister(b.name, 1e7))
	}
	mustTk(e.SubmitShare("seller", catalog.DatasetID("seller/d0"), propRelation(),
		wtp.DatasetMeta{Dataset: "seller/d0", HasProvenance: true}, license.Terms{Kind: license.Open}))
	if _, ran := e.TriggerEpoch(); !ran {
		t.Fatal("setup epoch did not run")
	}
}

// driveArrivals runs arrival rounds [from, to): every buyer submits its
// per-epoch load (admission may shed part of it), then one epoch runs.
func driveArrivals(t *testing.T, e *engine.Engine, wl propWorkload, from, to int, st *runStats) {
	t.Helper()
	for round := from; round < to; round++ {
		for _, b := range wl.buyers {
			for k := 0; k < b.perEpoch; k++ {
				want, f := propRequest(b.name)
				tk, err := e.SubmitRequestPriority(want, f, b.priority)
				if err != nil {
					var oe *engine.OverloadError
					if !errors.As(err, &oe) {
						t.Fatalf("intake error is not an OverloadError: %v", err)
					}
					if oe.RetryAfter <= 0 {
						t.Fatalf("rejection without retry-after hint: %+v", oe)
					}
					st.rejected++
					continue
				}
				st.tickets = append(st.tickets, tk)
			}
		}
		if _, ran := e.TriggerEpoch(); !ran {
			t.Fatalf("arrival round %d did not run an epoch", round)
		}
		st.trackPeak(e)
	}
}

// drainAll triggers epochs until every open request has cleared.
func drainAll(t *testing.T, e *engine.Engine, st *runStats) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if e.Stats().OpenRequests == 0 {
			return
		}
		if _, ran := e.TriggerEpoch(); !ran {
			t.Fatalf("drain stalled with %d open requests", e.Stats().OpenRequests)
		}
		st.trackPeak(e)
	}
	t.Fatalf("drain did not terminate: %d still open", e.Stats().OpenRequests)
}

// --- invariants ----------------------------------------------------------------

// agingWaitBound is the provable ceiling for the aging policy: once a
// request has aged past the widest class gap (gap/boost epochs), no fresh
// arrival can outrank it, so only the backlog present around its filing —
// at most peakOpen plus the arrivals of those gap epochs — precedes it,
// draining cap per counted epoch.
func agingWaitBound(wl propWorkload, peakOpen int) uint64 {
	gapEpochs := engine.PriorityHigh - engine.PriorityLow // boost = 1
	ahead := peakOpen + wl.maxPerEpoch()*(gapEpochs+1)
	return uint64(gapEpochs + (ahead+wl.cap-1)/wl.cap + 2)
}

func checkInvariants(t *testing.T, policyName string, wl propWorkload,
	p *core.Platform, e *engine.Engine, st *runStats) {
	t.Helper()
	if open := e.Stats().OpenRequests; open != 0 {
		t.Fatalf("%d requests starved after arrivals ended", open)
	}
	if !e.Settlements().Conserved() {
		t.Fatal("settlement conservation violated")
	}
	if i := p.Arbiter.Ledger.VerifyChain(); i >= 0 {
		t.Fatalf("ledger audit chain corrupted at entry %d", i)
	}

	// Quota accounting, recomputed from the durable event stream. The
	// request-rejected records are aggregates: their counts must add up to
	// exactly the rejections the driver observed.
	filed := map[string]int{}
	rejectedEvents := 0
	epochEnds := 0
	for _, ev := range e.Log().Since(0) {
		switch ev.Kind {
		case engine.EventRequestFiled:
			filed[ev.Participant]++
		case engine.EventRequestRejected:
			rejectedEvents += int(ev.Count)
		case engine.EventEpochEnd:
			epochEnds++
		}
	}
	limit := int(wl.burst) + int(wl.quota)*epochEnds
	for name, n := range filed {
		if n > limit {
			t.Fatalf("quota violated for %s: %d admitted > burst %v + quota %v x %d epochs",
				name, n, wl.burst, wl.quota, epochEnds)
		}
	}
	if rejectedEvents != st.rejected {
		t.Fatalf("rejection audit drifted: %d events vs %d observed errors", rejectedEvents, st.rejected)
	}

	// Starvation-aging wait bound: every matched request cleared within K.
	if policyName == "aging" {
		bound := agingWaitBound(wl, st.peakOpen)
		for _, id := range st.tickets {
			tk, ok := e.Ticket(id)
			if !ok || tk.Status != engine.TicketDone || tk.MatchedEpoch == 0 {
				continue
			}
			if wait := tk.MatchedEpoch - tk.Epoch; wait > bound {
				t.Fatalf("aging wait bound violated: ticket %s waited %d epochs (K=%d, peak=%d, cap=%d)",
					id, wait, bound, st.peakOpen, wl.cap)
			}
		}
	}
}

// --- determinism ----------------------------------------------------------------

// switchPersister forwards to the real WAL until flipped, then fails every
// persist — a crash whose durable prefix ends exactly at the flip point.
type switchPersister struct {
	inner engine.Persister
	fail  atomic.Bool
}

func (s *switchPersister) PersistRecord(seq int, kind engine.EventKind, rec []byte) error {
	if s.fail.Load() {
		return fmt.Errorf("injected crash at seq %d", seq)
	}
	return s.inner.PersistRecord(seq, kind, rec)
}

// canonEvents renders an event stream with timestamps scrubbed — the
// byte-comparable record of every policy decision the run made.
func canonEvents(t *testing.T, evs []engine.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range evs {
		ev.At = time.Time{}
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

func propFingerprint(t *testing.T, p *core.Platform, e *engine.Engine) string {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot for fingerprint: %v", err)
	}
	snap.TakenAt = time.Time{}
	var book []ledger.Settlement
	if err := snap.Book.Each(func(s ledger.Settlement) error { book = append(book, s); return nil }); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Snap      *engine.SnapshotState
		Book      []ledger.Settlement
		Demand    any
		Conserved bool
	}{snap, book, p.Arbiter.DemandSignals(), snap.Book.Conserved()})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// --- the harness ------------------------------------------------------------------

var propPolicies = []string{"fifo", "priority", "aging"}

// propSeeds is the fixed matrix plus an optional randomized budget.
func propSeeds(t *testing.T) []uint64 {
	seeds := make([]uint64, 0, 24)
	for s := uint64(1); s <= 20; s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("POLICY_PROP_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad POLICY_PROP_EXTRA_SEEDS %q: %v", v, err)
		}
		base := uint64(time.Now().UnixNano())
		for i := 0; i < n; i++ {
			seed := base + uint64(i)*0x9e3779b97f4a7c15
			t.Logf("randomized budget seed: %d", seed)
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

func TestPolicyProperties(t *testing.T) {
	for _, policyName := range propPolicies {
		t.Run(policyName, func(t *testing.T) {
			for _, seed := range propSeeds(t) {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runPropCase(t, policyName, seed)
				})
			}
		})
	}
}

func runPropCase(t *testing.T, policyName string, seed uint64) {
	wl := workloadFor(seed)
	cfg := propConfig(t, policyName, wl)

	// Uninterrupted baseline over a real WAL.
	dirA := t.TempDir()
	wA, err := wal.Open(wal.Options{Dir: dirA, Policy: wal.SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	pA, err := core.NewPlatform(core.Options{Design: propDesign})
	if err != nil {
		t.Fatal(err)
	}
	cfgA := cfg
	cfgA.Persister = wA
	eA := engine.New(pA, cfgA)
	stA := &runStats{}
	propSetup(t, eA, wl)
	driveArrivals(t, eA, wl, 0, wl.arrivalRounds, stA)
	drainAll(t, eA, stA)
	eA.Stop()
	if _, perr := eA.Log().Persisted(); perr != nil {
		t.Fatalf("baseline wedged its persister: %v", perr)
	}
	if err := wA.Close(); err != nil {
		t.Fatal(err)
	}

	checkInvariants(t, policyName, wl, pA, eA, stA)
	fpA := propFingerprint(t, pA, eA)
	evA := canonEvents(t, eA.Log().Since(0))

	// Crash at the m-th arrival boundary: everything after it is lost.
	m := wl.arrivalRounds / 2
	dirB := t.TempDir()
	wB, err := wal.Open(wal.Options{Dir: dirB, Policy: wal.SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	sw := &switchPersister{inner: wB}
	pB, err := core.NewPlatform(core.Options{Design: propDesign})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.Persister = sw
	eB := engine.New(pB, cfgB)
	stB := &runStats{}
	propSetup(t, eB, wl)
	driveArrivals(t, eB, wl, 0, m, stB)
	sw.fail.Store(true) // crash: the suffix of the run never reaches disk
	driveArrivals(t, eB, wl, m, wl.arrivalRounds, stB)
	drainAll(t, eB, stB)
	eB.Stop()
	wB.Close()

	// Reboot from the durable prefix and re-drive the lost suffix.
	pC, eC, wC, res, err := wal.Boot(core.Options{Design: propDesign}, cfg,
		wal.Options{Dir: dirB, Policy: wal.SyncEpoch})
	if err != nil {
		t.Fatalf("boot after crash: %v", err)
	}
	defer wC.Close()
	if res.Recovered == 0 {
		t.Fatal("nothing recovered from the durable prefix")
	}
	stC := &runStats{}
	driveArrivals(t, eC, wl, m, wl.arrivalRounds, stC)
	drainAll(t, eC, stC)
	eC.Stop()
	if _, perr := eC.Log().Persisted(); perr != nil {
		t.Fatalf("re-driven run wedged its persister: %v", perr)
	}

	if got := propFingerprint(t, pC, eC); got != fpA {
		t.Fatalf("crash/replay state diverged from the uninterrupted run:\n--- baseline\n%s\n--- replayed\n%s", fpA, got)
	}
	if got := canonEvents(t, eC.Log().Since(0)); got != evA {
		t.Fatalf("crash/replay decision stream diverged:\n--- baseline\n%s\n--- replayed\n%s", evA, got)
	}
}

// --- deterministic fairness contrasts ------------------------------------------

// contrastScenario measures how long a single victim request waits under a
// policy when a hot participant floods the market first: a 16-request
// normal-class burst lands ahead of one high-class victim request, with a
// matching-round cap of 2 per epoch.
func burstVictimWait(t *testing.T, policyName string) uint64 {
	t.Helper()
	pol, err := engine.ParsePolicy(policyName, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: propDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Policy: pol, EpochMatchCap: 2})
	defer e.Stop()
	mustTk(e.SubmitRegister("hot", 1e7))
	mustTk(e.SubmitRegister("victim", 1e7))
	mustTk(e.SubmitShare("seller", catalog.DatasetID("seller/d0"), propRelation(),
		wtp.DatasetMeta{Dataset: "seller/d0", HasProvenance: true}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()

	for i := 0; i < 16; i++ {
		want, f := propRequest("hot")
		mustTk(e.SubmitRequestPriority(want, f, engine.PriorityNormal))
	}
	want, f := propRequest("victim")
	victim := mustTk(e.SubmitRequestPriority(want, f, engine.PriorityHigh))
	e.TriggerEpoch()
	for i := 0; i < 100; i++ {
		if e.Stats().OpenRequests == 0 {
			break
		}
		e.TriggerEpoch()
	}
	tk, ok := e.Ticket(victim)
	if !ok || tk.Status != engine.TicketDone {
		t.Fatalf("victim never matched under %s: %+v", policyName, tk)
	}
	return tk.MatchedEpoch - tk.Epoch
}

// TestAgingBoundsWaitWhereFIFOExceedsIt is the acceptance contrast: the
// same burst workload makes FIFO hold the late high-priority victim behind
// the whole flood (wait > K) while starvation aging clears it within K.
func TestAgingBoundsWaitWhereFIFOExceedsIt(t *testing.T) {
	const K = 4
	fifoWait := burstVictimWait(t, "fifo")
	agingWait := burstVictimWait(t, "aging")
	if fifoWait <= K {
		t.Fatalf("FIFO baseline should exceed K=%d, waited only %d", K, fifoWait)
	}
	if agingWait > K {
		t.Fatalf("aging should bound the wait to K=%d, waited %d", K, agingWait)
	}
}

// TestAgingPreventsPriorityStarvation: a continuous stream of fresh
// high-class requests (one per epoch, cap 1) starves a low-class victim
// under the pure priority policy for the whole arrival horizon; with aging
// the victim's score outgrows fresh arrivals and it clears within K epochs.
func TestAgingPreventsPriorityStarvation(t *testing.T) {
	const (
		rounds = 12
		K      = 5
	)
	run := func(policyName string) (wait uint64, agedEvents int) {
		pol, err := engine.ParsePolicy(policyName, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPlatform(core.Options{Design: propDesign})
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(p, engine.Config{Policy: pol, EpochMatchCap: 1})
		defer e.Stop()
		mustTk(e.SubmitRegister("hot", 1e7))
		mustTk(e.SubmitRegister("victim", 1e7))
		mustTk(e.SubmitShare("seller", catalog.DatasetID("seller/d0"), propRelation(),
			wtp.DatasetMeta{Dataset: "seller/d0", HasProvenance: true}, license.Terms{Kind: license.Open}))
		e.TriggerEpoch()

		var victim string
		for round := 0; round < rounds; round++ {
			if round == 0 {
				want, f := propRequest("victim")
				victim = mustTk(e.SubmitRequestPriority(want, f, engine.PriorityLow))
			}
			want, f := propRequest("hot")
			mustTk(e.SubmitRequestPriority(want, f, engine.PriorityHigh))
			e.TriggerEpoch()
		}
		for i := 0; i < 100; i++ {
			if e.Stats().OpenRequests == 0 {
				break
			}
			e.TriggerEpoch()
		}
		tk, ok := e.Ticket(victim)
		if !ok || tk.Status != engine.TicketDone {
			t.Fatalf("victim never matched under %s: %+v", policyName, tk)
		}
		for _, ev := range e.Log().Since(0) {
			if ev.Kind == engine.EventRequestAged && ev.Ticket == victim {
				agedEvents++
			}
		}
		return tk.MatchedEpoch - tk.Epoch, agedEvents
	}

	prioWait, _ := run("priority")
	agingWait, aged := run("aging")
	if prioWait < rounds-1 {
		t.Fatalf("priority policy should starve the victim for the arrival horizon, waited %d", prioWait)
	}
	if agingWait > K {
		t.Fatalf("aging should clear the victim within K=%d, waited %d", K, agingWait)
	}
	if aged == 0 {
		t.Fatal("no request-aged events recorded for the deferred victim")
	}
}
