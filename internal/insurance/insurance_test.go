package insurance

import (
	"math"
	"testing"

	"repro/internal/ledger"
)

func mkLedger(t *testing.T) *ledger.Ledger {
	t.Helper()
	l := ledger.New()
	for _, a := range []string{"seller", "arbiter"} {
		if err := l.Open(a, ledger.FromFloat(1000)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestRiskScoreMonotone(t *testing.T) {
	low := RiskProfile{Epsilon: 0.1, Records: 100}
	high := RiskProfile{Epsilon: 8, Records: 100}
	if low.RiskScore() >= high.RiskScore() {
		t.Errorf("more epsilon spent must mean more risk: %v vs %v", low.RiskScore(), high.RiskScore())
	}
	pii := RiskProfile{Epsilon: 0.1, Records: 100, HasDirectIdentifiers: true}
	if pii.RiskScore() <= low.RiskScore() {
		t.Error("direct identifiers must raise risk")
	}
	if s := (RiskProfile{Epsilon: 1000, Records: 1 << 40, HasDirectIdentifiers: true}).RiskScore(); s > 1 {
		t.Errorf("risk must cap at 1, got %v", s)
	}
}

func TestUnderwriteAndQuote(t *testing.T) {
	l := mkLedger(t)
	in, err := New(l, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	risk := RiskProfile{Epsilon: 2, Records: 5000}
	q := in.Quote(risk, 500)
	want := risk.RiskScore() * 500 * 1.2
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("quote = %v, want %v", q, want)
	}
	p, err := in.Underwrite("workforce", "seller", risk, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Active || p.Premium != q {
		t.Errorf("policy = %+v", p)
	}
	if got := l.Balance(PoolAccount).Float(); math.Abs(got-q) > 0.001 {
		t.Errorf("pool = %v, want premium %v", got, q)
	}
	if math.Abs(l.Balance("seller").Float()-(1000-q)) > 0.001 {
		t.Errorf("seller balance = %v", l.Balance("seller"))
	}
	if _, err := in.Underwrite("x", "seller", risk, -5); err == nil {
		t.Error("negative coverage must fail")
	}
	if _, err := New(l, 0.5); err == nil {
		t.Error("load factor < 1 must be rejected")
	}
}

func TestClaimLifecycle(t *testing.T) {
	l := mkLedger(t)
	in, _ := New(l, 1.5)
	// Seed the pool with several premiums so claims can pay.
	risk := RiskProfile{Epsilon: 6, Records: 50000, HasDirectIdentifiers: true}
	p, err := in.Underwrite("d1", "seller", risk, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Underwrite("d2", "arbiter", risk, 300); err != nil {
		t.Fatal(err)
	}
	pool := l.Balance(PoolAccount).Float()
	paid, err := in.Claim(p.ID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if paid != 100 && paid != pool { // pool-limited or full
		t.Errorf("paid = %v", paid)
	}
	if p.ClaimPaid != paid {
		t.Errorf("claim paid recorded = %v", p.ClaimPaid)
	}
	// Coverage exhaustion deactivates.
	for i := 0; i < 10; i++ {
		if _, err := in.Claim(p.ID, 1000); err != nil {
			break
		}
	}
	if p.ClaimPaid > p.Coverage+1e-9 {
		t.Errorf("paid %v beyond coverage %v", p.ClaimPaid, p.Coverage)
	}
	if _, err := in.Claim("pol-9999", 10); err == nil {
		t.Error("unknown policy must fail")
	}
	if _, err := in.Claim(p.ID, -1); err == nil {
		t.Error("negative loss must fail")
	}
}

func TestPoolNeverOverdrafts(t *testing.T) {
	l := mkLedger(t)
	in, _ := New(l, 1.0)
	risk := RiskProfile{Epsilon: 0.01, Records: 10}
	p, err := in.Underwrite("d", "seller", risk, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny premium, huge claim: payout capped by pool.
	paid, err := in.Claim(p.ID, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if paid > p.Premium+1e-5 { // currency micro-unit rounding
		t.Errorf("paid %v exceeds pool %v", paid, p.Premium)
	}
	if l.Balance(PoolAccount).Float() < -1e-9 {
		t.Errorf("pool overdrafted: %v", l.Balance(PoolAccount).Float())
	}
}
