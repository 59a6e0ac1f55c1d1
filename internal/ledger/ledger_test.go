package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/retain"
)

func TestOpenDepositTransfer(t *testing.T) {
	l := New()
	if err := l.Open("b1", FromFloat(100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Open("s1", 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Open("b1", 0); err == nil {
		t.Error("double open must fail")
	}
	if err := l.Transfer("b1", "s1", FromFloat(30), "sale"); err != nil {
		t.Fatal(err)
	}
	if l.Balance("b1").Float() != 70 || l.Balance("s1").Float() != 30 {
		t.Errorf("balances %v/%v", l.Balance("b1"), l.Balance("s1"))
	}
	if err := l.Transfer("b1", "s1", FromFloat(1000), ""); err == nil {
		t.Error("overdraft must fail")
	}
	if err := l.Transfer("ghost", "s1", 1, ""); err == nil {
		t.Error("unknown from must fail")
	}
	if err := l.Transfer("b1", "ghost", 1, ""); err == nil {
		t.Error("unknown to must fail")
	}
	if err := l.Transfer("b1", "s1", -1, ""); err == nil {
		t.Error("negative transfer must fail")
	}
	if err := l.Deposit("s1", FromFloat(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Deposit("ghost", 1); err == nil {
		t.Error("deposit to unknown account must fail")
	}
}

func TestEscrowLifecycle(t *testing.T) {
	l := New()
	_ = l.Open("buyer", FromFloat(100))
	_ = l.Open("seller", 0)
	if err := l.Hold("tx1", "buyer", FromFloat(40), "ex post deposit"); err != nil {
		t.Fatal(err)
	}
	if l.Balance("buyer").Float() != 60 {
		t.Errorf("buyer after hold = %v", l.Balance("buyer"))
	}
	if l.Escrowed("tx1").Float() != 40 {
		t.Errorf("escrowed = %v", l.Escrowed("tx1"))
	}
	if err := l.Hold("tx1", "buyer", 1, ""); err == nil {
		t.Error("duplicate escrow ID must fail")
	}
	// Release 25 to seller; 15 refunds to buyer.
	if err := l.Release("tx1", "seller", FromFloat(25), "payment"); err != nil {
		t.Fatal(err)
	}
	if l.Balance("seller").Float() != 25 {
		t.Errorf("seller = %v", l.Balance("seller"))
	}
	if l.Balance("buyer").Float() != 75 {
		t.Errorf("buyer after refund = %v", l.Balance("buyer"))
	}
	if l.Escrowed("tx1") != 0 {
		t.Error("escrow must close")
	}
	if err := l.Release("tx1", "seller", 1, ""); err == nil {
		t.Error("double release must fail")
	}
	if err := l.Hold("tx2", "buyer", FromFloat(10000), ""); err == nil {
		t.Error("over-escrow must fail")
	}
}

func TestAuditChain(t *testing.T) {
	l := New()
	_ = l.Open("a", FromFloat(10))
	_ = l.Open("b", 0)
	_ = l.Transfer("a", "b", FromFloat(3), "m1")
	l.Note("mashup delivered")
	if i := l.VerifyChain(); i != -1 {
		t.Fatalf("fresh chain corrupt at %d", i)
	}
	log := l.Log()
	if len(log) != 4 {
		t.Fatalf("log len = %d", len(log))
	}
	// Tamper with an internal copy — the ledger's own chain must still be intact,
	// and a recomputed chain over tampered data must fail.
	tamper(t, l, 2, func(e *AuditEntry) { e.Amount = FromFloat(999) })
	if i := l.VerifyChain(); i != 2 {
		t.Errorf("tamper detected at %d, want 2", i)
	}
}

func TestTotalSupplyConservation(t *testing.T) {
	l := New()
	_ = l.Open("b", FromFloat(100))
	_ = l.Open("s", FromFloat(50))
	_ = l.Open("arbiter", 0)
	before := l.TotalSupply()
	_ = l.Transfer("b", "s", FromFloat(10), "")
	_ = l.Hold("e1", "b", FromFloat(20), "")
	if got := l.TotalSupply(); got != before {
		t.Errorf("supply changed by transfer/hold: %v -> %v", before, got)
	}
	_ = l.Release("e1", "arbiter", FromFloat(5), "")
	if got := l.TotalSupply(); got != before {
		t.Errorf("supply changed by release: %v -> %v", before, got)
	}
}

func TestCurrencyRoundTrip(t *testing.T) {
	f := func(x int32) bool {
		v := float64(x) / 100 // two decimal places
		return FromFloat(v).Float() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if FromFloat(1.5).String() != "1.50" {
		t.Errorf("String = %s", FromFloat(1.5))
	}
}

func TestAccountsSorted(t *testing.T) {
	l := New()
	_ = l.Open("z", 0)
	_ = l.Open("a", 0)
	got := l.Accounts()
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Errorf("accounts = %v", got)
	}
}

// Property: any sequence of valid transfers conserves total supply.
func TestConservationProperty(t *testing.T) {
	f := func(moves []uint8) bool {
		l := New()
		_ = l.Open("a", FromFloat(1000))
		_ = l.Open("b", FromFloat(1000))
		want := l.TotalSupply()
		for i, m := range moves {
			amt := FromFloat(float64(m))
			if i%2 == 0 {
				_ = l.Transfer("a", "b", amt, "")
			} else {
				_ = l.Transfer("b", "a", amt, "")
			}
		}
		return l.TotalSupply() == want && l.VerifyChain() == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAuditWindow: the audit chain keeps its newest entries only. Once the
// window has wrapped, VerifyChain still proves the retained entries are an
// unbroken suffix — from the anchor, the hash of the last dropped entry — and
// still catches a tampered retained entry and a tampered anchor.
func TestAuditWindow(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.Audit = 8 })()
	l := New()
	_ = l.Open("a", FromFloat(1000))
	_ = l.Open("b", 0)
	var hashes []string // every entry's hash, kept by the test only
	record := func() {
		log := l.Log()
		hashes = append(hashes, log[len(log)-1].Hash)
	}
	hashes = append(hashes, l.Log()[0].Hash)
	record()
	for i := 0; i < 40; i++ {
		if err := l.Transfer("a", "b", FromFloat(1), fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
		record()
		if got := l.VerifyChain(); got != -1 {
			t.Fatalf("intact chain reported corrupt at %d after %d transfers", got, i+1)
		}
	}
	log := l.Log()
	if total, held := l.AuditSize(); len(log) != 8 || held != 8 || total != 42 {
		t.Fatalf("window holds %d entries (held %d) of %d, want 8 of 42", len(log), held, total)
	}
	for i, e := range log {
		if e.Seq != 34+i || e.Hash != hashes[e.Seq] || e.PrevHash != hashes[e.Seq-1] {
			t.Fatalf("retained entry %d: seq %d does not continue the full chain", i, e.Seq)
		}
	}
	if l.TotalSupply() != FromFloat(1000) {
		t.Fatalf("supply %v", l.TotalSupply())
	}

	tamper(t, l, 5, func(e *AuditEntry) { e.Memo = "doctored" })
	if got := l.VerifyChain(); got != 39 {
		t.Fatalf("tampered retained entry detected at %d, want seq 39", got)
	}
	tamper(t, l, 5, func(e *AuditEntry) { e.Memo = "t37" })
	l.mu.Lock()
	good := l.anchor
	l.anchor.sum = [32]byte(must(hex.DecodeString(hashes[0])))
	l.mu.Unlock()
	if got := l.VerifyChain(); got != 34 {
		t.Fatalf("tampered anchor detected at %d, want the first retained seq 34", got)
	}
	l.mu.Lock()
	l.anchor = good
	l.mu.Unlock()
	if got := l.VerifyChain(); got != -1 {
		t.Fatalf("restored chain reported corrupt at %d", got)
	}
}

// computeHash is e's hash over its fields and PrevHash, in hex.
func computeHash(e *AuditEntry) string {
	sum := e.sum([]byte(e.PrevHash))
	return hex.EncodeToString(sum[:])
}

// fmtHash is the audit hash as it was first written, through fmt: the form
// computeHash must reproduce byte for byte, since a chain is only as
// verifiable as its hashes are stable.
func fmtHash(e *AuditEntry) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d|%s|%s", e.Seq, e.Kind, e.From, e.To, e.Amount, e.Memo, e.PrevHash)
	return hex.EncodeToString(h.Sum(nil))
}

// TestAuditHashMatchesFmt: AuditEntry.sum gives exactly fmtHash's bytes for
// random entries — negative, zero and extreme amounts and seqs, empty,
// non-ASCII, invalid-UTF-8, '|'-bearing and longer-than-scratch strings —
// and for the entries of a real chain whose window has wrapped, the first of
// which chains to the anchor.
func TestAuditHashMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strs := []string{"", "open", "escrow refund", "mashup m7 delivered to b1", "größe→ü", "市场", "\xff\xfe",
		"a|b", strings.Repeat("x", 300), hex.EncodeToString(make([]byte, 32))}
	kinds := []EntryKind{KindOpen, KindDeposit, KindWithdraw, KindTransfer, KindEscrow, KindRelease, KindRefund, KindNote, ""}
	amounts := []Currency{0, 1, -1, FromFloat(100), FromFloat(-0.5), math.MaxInt64, math.MinInt64}
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	for i := 0; i < 2000; i++ {
		e := AuditEntry{Seq: rng.Intn(1 << 20), Kind: kinds[rng.Intn(len(kinds))], From: pick(strs), To: pick(strs),
			Amount: amounts[rng.Intn(len(amounts))], Memo: pick(strs), PrevHash: pick(strs)}
		switch i % 4 {
		case 1:
			e.Amount = Currency(rng.Int63() - rng.Int63())
		case 2:
			e.Seq = -e.Seq
		case 3:
			e.Memo = string(rune(rng.Intn(0x10ffff)))
		}
		if got, want := computeHash(&e), fmtHash(&e); got != want {
			t.Fatalf("entry %+v: hash %s, fmt gives %s", e, got, want)
		}
	}

	defer retain.Shrink(func(w *retain.Windows) { w.Audit = 4 })()
	l := New()
	_ = l.Open("a", FromFloat(50))
	_ = l.Open("ü", 0)
	for i := 0; i < 9; i++ {
		_ = l.Transfer("a", "ü", FromFloat(1), strs[i%len(strs)])
	}
	l.Note("")
	log := l.Log()
	if anchor := string(l.anchor.appendHex(nil)); log[0].PrevHash != anchor || anchor == "" {
		t.Fatalf("the window's first entry does not chain to the anchor %q", anchor)
	}
	for _, e := range log {
		if e.Hash != fmtHash(&e) {
			t.Fatalf("chain entry %+v: hash %s, fmt gives %s", e, e.Hash, fmtHash(&e))
		}
	}
}

// TestAuditAppendAllocsOnceFull pins what an audit append costs once the
// window is full: the window is a ring of packed records, each hash 32 raw
// bytes in it, so an append of an entry no larger than the ones it replaces
// allocates nothing. An AuditEntry ring allocated each entry's 64 B hex hash;
// a window that drops its oldest entry by re-slicing re-copies itself every
// few thousand appends, 564 B per append on average at the default 8,192
// entries.
func TestAuditAppendAllocsOnceFull(t *testing.T) {
	l := New()
	window := retain.Sizes().Audit
	for i := 0; i < 2*window; i++ { // full, and its ring at its steady size
		l.Note("steady")
	}
	const n = 1 << 14
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.Note("steady")
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("an audit append allocates %.1f B once the window is full", per)
	if per > 8 {
		t.Fatalf("an audit append allocates %.1f B once the window is full, want at most 8", per)
	}
	if got := l.VerifyChain(); got != -1 {
		t.Fatalf("wrapped chain reported corrupt at %d", got)
	}
	if total, held := l.AuditSize(); total != 2*window+n || held != window {
		t.Fatalf("window holds %d of %d, want %d of %d", held, total, window, 2*window+n)
	}
}

// tamper rewrites the i-th retained audit entry through edit, keeping the
// hash the chain holds for it, as someone editing the ledger's memory would.
func tamper(t *testing.T, l *Ledger, i int, edit func(*AuditEntry)) {
	t.Helper()
	log := l.Log()
	edit(&log[i])
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = retain.Ring{}
	for _, e := range log {
		sum := [32]byte(must(hex.DecodeString(e.Hash)))
		l.log.Push(appendAuditRecord(nil, &sum, &e))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// FuzzAuditRecord: an audit entry's fields and hash come back out of its
// packed record exactly, whatever its strings and amount.
func FuzzAuditRecord(f *testing.F) {
	f.Add(byte(3), "buyer1", "seller2", int64(95_000_000), "revenue share tx-0002", "\x01")
	f.Add(byte(7), "", "", int64(0), "", "")
	f.Add(byte(0), "a|b", "ü\xff", int64(math.MinInt64), strings.Repeat("m", 300), strings.Repeat("\xff", 40))
	f.Fuzz(func(t *testing.T, kind byte, from, to string, amount int64, memo, hash string) {
		in := AuditEntry{Kind: entryKinds[int(kind)%len(entryKinds)], From: from, To: to, Amount: Currency(amount), Memo: memo}
		var sum [32]byte
		copy(sum[:], hash)
		var out AuditEntry
		if got := decodeAuditRecord(appendAuditRecord([]byte("prefix"), &sum, &in)[len("prefix"):], &out); got != sum || out != in {
			t.Fatalf("packed %+v with hash %x, unpacked %+v with hash %x", in, sum, out, got)
		}
	})
}
