package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/license"
	"repro/internal/wtp"
)

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"": "fifo", "fifo": "fifo", "priority": "priority", "aging": "aging",
	} {
		p, err := ParsePolicy(name, 0)
		if err != nil || p.Name() != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := ParsePolicy("lifo", 0); err == nil {
		t.Fatal("unknown policy should fail to parse")
	}
	ag, _ := ParsePolicy("aging", 2.5)
	if got := ag.(PolicyAging).AgeBoost; got != 2.5 {
		t.Fatalf("age boost not threaded: %v", got)
	}
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]int{
		"": PriorityNormal, "normal": PriorityNormal,
		"low": PriorityLow, "high": PriorityHigh, "2": PriorityHigh,
	} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	// Junk labels and out-of-range classes are rejected: an unbounded
	// client-chosen priority would defeat the aging wait bound.
	for _, s := range []string{"urgent-ish", "7", "-3", "1000000"} {
		if _, err := ParsePriority(s); err == nil {
			t.Fatalf("priority %q should fail to parse", s)
		}
	}
}

func TestSelectCandidatesOrdering(t *testing.T) {
	cands := []RequestCandidate{
		{RequestID: "r1", FiledSeq: 1, Priority: PriorityLow},
		{RequestID: "r2", FiledSeq: 2, Priority: PriorityHigh},
		{RequestID: "r3", FiledSeq: 3, Priority: PriorityNormal, Age: 4},
	}
	order := func(p MatchPolicy, cap int) []string {
		sel, _ := SelectCandidates(p, cands, cap)
		out := make([]string, len(sel))
		for i, c := range sel {
			out[i] = c.RequestID
		}
		return out
	}
	if got := order(PolicyFIFO{}, 0); got[0] != "r1" || got[1] != "r2" || got[2] != "r3" {
		t.Fatalf("fifo order %v", got)
	}
	if got := order(PolicyPriority{}, 0); got[0] != "r2" || got[1] != "r3" || got[2] != "r1" {
		t.Fatalf("priority order %v", got)
	}
	// Aging boost 1: r3 scores 1+4=5, past r2's fresh high of 2.
	if got := order(PolicyAging{}, 0); got[0] != "r3" || got[1] != "r2" || got[2] != "r1" {
		t.Fatalf("aging order %v", got)
	}
	sel, def := SelectCandidates(PolicyAging{}, cands, 1)
	if len(sel) != 1 || sel[0].RequestID != "r3" || len(def) != 2 {
		t.Fatalf("cap split wrong: sel=%v def=%v", sel, def)
	}
	// Ties break on FiledSeq: two fresh normal requests keep arrival order.
	tie := []RequestCandidate{
		{RequestID: "b", FiledSeq: 9, Priority: PriorityNormal},
		{RequestID: "a", FiledSeq: 4, Priority: PriorityNormal},
	}
	sel, _ = SelectCandidates(PolicyPriority{}, tie, 0)
	if sel[0].RequestID != "a" {
		t.Fatalf("tie should break on FiledSeq, got %v", sel)
	}
	// Input order untouched.
	if cands[0].RequestID != "r1" || cands[2].RequestID != "r3" {
		t.Fatalf("SelectCandidates mutated its input: %v", cands)
	}
}

func TestAdmissionQuotaRejectsAndRefills(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{QuotaPerEpoch: 1, QuotaBurst: 2}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("b1", 1_000_000))
	e.TriggerEpoch()

	want, fn := coverageRequest("b1", 150)
	for i := 0; i < 2; i++ {
		if _, err := e.SubmitRequest(want, fn); err != nil {
			t.Fatalf("burst admission %d rejected: %v", i, err)
		}
	}
	_, err := e.SubmitRequest(want, fn)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if oe.Reason != OverloadQuota || oe.Participant != "b1" || oe.RetryAfter <= 0 {
		t.Fatalf("bad overload error: %+v", oe)
	}
	if _, err := e.SubmitRequest(want, fn); err == nil {
		t.Fatal("fourth request should also be shed")
	}
	// The shedding path writes nothing: the audit record is aggregated and
	// flushed by the next counted epoch.
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventRequestRejected {
			t.Fatalf("rejection logged before the epoch flush: %+v", ev)
		}
	}

	// The epoch applies the burst, flushes one aggregated audit record for
	// the two sheds, and refills one token.
	e.TriggerEpoch()
	rejected := 0
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventRequestRejected {
			rejected++
			if ev.Ticket != "" || ev.Participant != "b1" || ev.Note != OverloadQuota || ev.Count != 2 {
				t.Fatalf("bad aggregated request-rejected event: %+v", ev)
			}
		}
	}
	if rejected != 1 || e.Stats().Rejected != 2 {
		t.Fatalf("rejected events=%d stats=%d, want 1 event covering 2 sheds", rejected, e.Stats().Rejected)
	}
	if _, err := e.SubmitRequest(want, fn); err != nil {
		t.Fatalf("post-refill admission rejected: %v", err)
	}
	if _, err := e.SubmitRequest(want, fn); err == nil {
		t.Fatal("second post-refill admission should exceed the quota")
	}
}

func TestAdmissionEpochCap(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{EpochRequestCap: 2}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("b1", 1_000_000))
	mustTicket(e.SubmitRegister("b2", 1_000_000))
	e.TriggerEpoch()

	w1, f1 := coverageRequest("b1", 150)
	w2, f2 := coverageRequest("b2", 150)
	mustTicket(e.SubmitRequest(w1, f1))
	mustTicket(e.SubmitRequest(w2, f2))
	_, err := e.SubmitRequest(w1, f1)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != OverloadEpochCap {
		t.Fatalf("want epoch-cap overload, got %v", err)
	}
	// A new epoch window opens after the epoch runs.
	e.TriggerEpoch()
	if _, err := e.SubmitRequest(w1, f1); err != nil {
		t.Fatalf("fresh window admission rejected: %v", err)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{MaxPending: 2}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("b1", 100))
	mustTicket(e.SubmitRegister("b2", 100))
	_, err := e.SubmitRegister("b3", 100)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != OverloadQueueDepth {
		t.Fatalf("want queue-depth overload, got %v", err)
	}
	if oe.RetryAfter != defaultRetryAfter {
		t.Fatalf("retry-after hint = %v, want default %v", oe.RetryAfter, defaultRetryAfter)
	}
	// Sheds are transient overload protection: counted, but never logged.
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventRequestRejected {
			t.Fatalf("queue-depth shed must not be audit-logged: %+v", ev)
		}
	}
	if st := e.Stats(); st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("shed=%d rejected=%d, want 1, 0", st.Shed, st.Rejected)
	}
	// Draining the queue reopens intake.
	e.TriggerEpoch()
	if _, err := e.SubmitRegister("b3", 100); err != nil {
		t.Fatalf("post-drain submission rejected: %v", err)
	}
}

// TestQuotaRefillsOnIdleMarket is the lockout regression: with a
// fractional per-epoch quota and no matchable work, rejected submissions
// enqueue nothing, so without the flush-only epoch no epoch would ever
// count and the bucket could never climb back to one token. Pending shed
// audits must force a counted epoch that refills.
func TestQuotaRefillsOnIdleMarket(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{QuotaPerEpoch: 0.5, QuotaBurst: 1}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("b1", 1_000_000))
	e.TriggerEpoch()

	want, fn := coverageRequest("b1", 150)
	mustTicket(e.SubmitRequest(want, fn)) // tokens 1 -> 0 at apply
	e.TriggerEpoch()                      // request stays open (no supply); refill -> 0.5

	// The client's retry loop: each rejection leaves a pending audit, each
	// epoch flushes it and refills 0.5 — admission must succeed within a
	// few cycles rather than deadlocking forever.
	admitted := false
	for i := 0; i < 4; i++ {
		if _, err := e.SubmitRequest(want, fn); err == nil {
			admitted = true
			break
		}
		if _, ran := e.TriggerEpoch(); !ran {
			t.Fatalf("cycle %d: epoch did not count despite pending shed audits", i)
		}
	}
	if !admitted {
		t.Fatal("fractional quota never refilled: participant locked out on an idle market")
	}
}

// TestQuotaRejectionKicksEpochLoop covers threshold/manual-epoch engines
// (no ticker): a rejection enqueues nothing, so without the rejection-path
// kick the background loop would never run an epoch, never refill, and the
// retrying client would be 429'd forever even while obeying Retry-After.
func TestQuotaRejectionKicksEpochLoop(t *testing.T) {
	_, e := newTestEngine(t, Config{BatchThreshold: 64,
		Admission: AdmissionConfig{QuotaPerEpoch: 1, QuotaBurst: 1}})
	e.Start() // loop runs on kicks only: no ticker, threshold far away
	defer e.Stop()
	reg := mustTicket(e.SubmitRegister("b1", 1_000_000))
	e.TriggerEpoch()
	waitTerminal(t, e, []string{reg}, time.Second)

	want, fn := coverageRequest("b1", 150)
	mustTicket(e.SubmitRequest(want, fn)) // bucket empty; request queued below threshold

	// The client retry loop: every rejection must kick the loop, which
	// drains the queued request, counts an epoch and refills the bucket.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := e.SubmitRequest(want, fn); err == nil {
			return // re-admitted: the loop ran an epoch without our help
		}
		if time.Now().After(deadline) {
			t.Fatal("rejections never kicked an epoch: quota locked out on a threshold-only engine")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRefillFraction pins the wall-clock scaling that stops
// batch-threshold epochs from multiplying a requests-per-second quota.
func TestRefillFraction(t *testing.T) {
	a := newAdmission(AdmissionConfig{QuotaPerEpoch: 4}, 100*time.Millisecond)
	a.lastRefill = time.Now().Add(-50 * time.Millisecond)
	if f := a.refillFraction(); f < 0.3 || f > 0.8 {
		t.Fatalf("half-period refill fraction = %v, want ~0.5", f)
	}
	a.lastRefill = time.Now().Add(-time.Second)
	if f := a.refillFraction(); f != 1 {
		t.Fatalf("late epoch should cap the refill at one quantum, got %v", f)
	}
	// No ticker: per-epoch semantics, always a full quantum.
	m := newAdmission(AdmissionConfig{QuotaPerEpoch: 4}, 0)
	if f := m.refillFraction(); f != 1 {
		t.Fatalf("manual-epoch engines should refill full quanta, got %v", f)
	}
	// Partial refills land proportionally in the bucket.
	b := newAdmission(AdmissionConfig{QuotaPerEpoch: 4, QuotaBurst: 10}, 0)
	b.bucket("x").tokens = 0
	b.refill(0.5)
	if got := b.bucket("x").tokens; got != 2 {
		t.Fatalf("half refill of quota 4 = %v tokens, want 2", got)
	}
}

// TestSyncFiledRequestsStillMatchUnderPolicy: a request filed directly with
// the platform (the synchronous dmms surface, bypassing engine intake) has
// no ticket or policy metadata — a policy/cap configuration must still let
// it into every round rather than silently stranding it open forever.
func TestSyncFiledRequestsStillMatchUnderPolicy(t *testing.T) {
	p, e := newTestEngine(t, Config{Policy: PolicyPriority{}, EpochMatchCap: 1})
	defer e.Stop()
	mustTicket(e.SubmitRegister("b1", 1_000_000))
	mustTicket(e.SubmitShare("s1", "s1/d1", testRelation("s1/d1", 10),
		wtp.DatasetMeta{Dataset: "s1/d1"}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()

	want, fn := coverageRequest("b1", 150)
	id, err := p.SubmitRequest(want, fn) // sync path: no engine ticket
	if err != nil {
		t.Fatal(err)
	}
	// An engine-tracked request fills the round's whole cap (1); the
	// sync-filed one must still ride along rather than being deferred.
	mustTicket(e.SubmitRequest(want, fn))
	if _, ran := e.TriggerEpoch(); !ran {
		t.Fatal("round did not run")
	}
	for _, open := range p.Arbiter.OpenRequests() {
		if open == id {
			t.Fatalf("sync-filed request %s stranded open under a policy/cap", id)
		}
	}
}

// TestPolicyStateSurvivesRestore checks the engine-level replay of the new
// policy records: rejection counters, per-request priorities and token
// buckets all rebuilt from the event stream alone (no snapshot). The stream
// is what a recording persister received: readers of the log get no
// payloads, and replay needs them.
func TestPolicyStateSurvivesRestore(t *testing.T) {
	wal := &memPersister{}
	cfg := Config{Admission: AdmissionConfig{QuotaPerEpoch: 1, QuotaBurst: 1}, Persister: wal}
	p, e := newTestEngine(t, cfg)
	mustTicket(e.SubmitRegister("b1", 1_000_000))
	e.TriggerEpoch()
	want, fn := coverageRequest("b1", 150)
	if _, err := e.SubmitRequestPriority(want, fn, PriorityHigh); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitRequest(want, fn); err == nil {
		t.Fatal("quota should reject the second request")
	}
	e.TriggerEpoch() // files the request; no supply, so it stays open
	e.Stop()

	p2, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persister = nil
	e2, err := Restore(p2, cfg, nil, sliceSource(wal.events))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	if got := e2.Stats().Rejected; got != 1 {
		t.Fatalf("rejection counter lost on restore: %d", got)
	}
	// Open request keeps its priority class and filing coordinates.
	snap, err := e2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Policy == nil || len(snap.Policy.Requests) != 1 {
		t.Fatalf("policy state missing from restored snapshot: %+v", snap.Policy)
	}
	rm := snap.Policy.Requests[0]
	if rm.Priority != PriorityHigh || rm.FiledSeq == 0 {
		t.Fatalf("restored request meta wrong: %+v", rm)
	}
	// The bucket replayed to the live level too: the filing consumed its
	// token and the epoch end refilled exactly one, so the restored engine
	// admits one request and then rejects, just as the live one would.
	if _, err := e2.SubmitRequest(want, fn); err != nil {
		t.Fatalf("restored bucket should hold one refilled token: %v", err)
	}
	if _, err := e2.SubmitRequest(want, fn); err == nil {
		t.Fatal("restored bucket should be empty after one admission")
	}
	_ = p
}

// TestQuotaOverridePerParticipant: a named participant's override replaces
// the global rate/burst — the VIP admits a burst of 3 while everyone else
// stays at the global 1-per-epoch.
func TestQuotaOverridePerParticipant(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{
			QuotaPerEpoch: 1, QuotaBurst: 1,
			Overrides: map[string]QuotaOverride{"vip": {PerEpoch: 3, Burst: 3}},
		}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("vip", 1_000_000))
	mustTicket(e.SubmitRegister("plain", 1_000_000))
	e.TriggerEpoch()

	submit := func(buyer string) error {
		want, fn := coverageRequest(buyer, 150)
		_, err := e.SubmitRequest(want, fn)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := submit("vip"); err != nil {
			t.Fatalf("vip admission %d rejected: %v", i, err)
		}
	}
	var oe *OverloadError
	if err := submit("vip"); !errors.As(err, &oe) || oe.Reason != OverloadQuota {
		t.Fatalf("vip burst 4 should hit its override quota, got %v", err)
	}
	if err := submit("plain"); err != nil {
		t.Fatalf("plain admission rejected: %v", err)
	}
	if err := submit("plain"); !errors.As(err, &oe) || oe.Participant != "plain" {
		t.Fatalf("plain should stay on the global 1-burst quota, got %v", err)
	}

	// Refill: vip earns its override rate (3), plain the global 1.
	e.TriggerEpoch()
	for i := 0; i < 3; i++ {
		if err := submit("vip"); err != nil {
			t.Fatalf("vip post-refill admission %d rejected: %v", i, err)
		}
	}
	if err := submit("plain"); err != nil {
		t.Fatalf("plain post-refill admission rejected: %v", err)
	}
	if err := submit("plain"); err == nil {
		t.Fatal("plain second post-refill admission should exceed the global quota")
	}
}

// TestQuotaOverrideWithoutGlobalQuota: overrides alone enable admission
// control — only the named participant is limited, everyone else is
// unthrottled, and a PerEpoch <= 0 override exempts entirely.
func TestQuotaOverrideWithoutGlobalQuota(t *testing.T) {
	_, e := newTestEngine(t, Config{
		Admission: AdmissionConfig{
			Overrides: map[string]QuotaOverride{
				"scraper": {PerEpoch: 1, Burst: 1},
				"exempt":  {PerEpoch: 0},
			},
		}})
	defer e.Stop()
	mustTicket(e.SubmitRegister("scraper", 1_000_000))
	mustTicket(e.SubmitRegister("free", 1_000_000))
	mustTicket(e.SubmitRegister("exempt", 1_000_000))
	e.TriggerEpoch()

	submit := func(buyer string) error {
		want, fn := coverageRequest(buyer, 150)
		_, err := e.SubmitRequest(want, fn)
		return err
	}
	if err := submit("scraper"); err != nil {
		t.Fatalf("scraper first admission rejected: %v", err)
	}
	if err := submit("scraper"); err == nil {
		t.Fatal("scraper second admission should be shed by its override")
	}
	for i := 0; i < 5; i++ {
		if err := submit("free"); err != nil {
			t.Fatalf("unnamed participant %d throttled without a global quota: %v", i, err)
		}
		if err := submit("exempt"); err != nil {
			t.Fatalf("exempt participant %d throttled: %v", i, err)
		}
	}
}

// sliceSource replays an in-memory event slice as a Restore source, in two
// batches so the batch seam is exercised.
func sliceSource(evs []Event) EventSource {
	return func(yield func([]Event) error) error {
		if err := yield(evs[:len(evs)/2]); err != nil {
			return err
		}
		return yield(evs[len(evs)/2:])
	}
}
