package federation

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ledger"
)

// TestFundsConservationProperty is the randomized counterpart of the
// exhaustive kill matrix: seeded sequences of cross-shard settles, each round
// either clean or killed at a randomly drawn 2PC boundary, all layered on ONE
// WAL lineage so every recovery replays the full history of earlier commits
// and aborts. The invariant: no interleaving of prepare/commit/abort and
// process death may mint or destroy money. After every recovery the
// federation-wide supply equals exactly what was deposited, every shard's
// audit chain verifies, no escrow is left in flight, and an aborted want
// retried under a fresh xid still settles without moving the supply. Every
// want settles exactly once: its ticket ends done, and the committed count
// equals the rounds.
//
// Seeds 1 and 7 keep CI deterministic; FED_PROP_EXTRA_SEEDS=N adds N
// time-derived ones, each named in its subtest for reproduction.
func TestFundsConservationProperty(t *testing.T) {
	seeds := []int64{1, 7}
	if v := os.Getenv("FED_PROP_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad FED_PROP_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))

			// Every boundary appears at least once per seed; shuffled order plus
			// interleaved clean rounds ("") vary the history each kill lands on.
			points := []string{""}
			for _, kp := range killPoints {
				points = append(points, kp.point)
			}
			rnd.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
			points = append(points, "", killPoints[rnd.Intn(len(killPoints))].point)

			dir := t.TempDir()
			var expected ledger.Currency
			deposit := func(m *Market, name string, funds float64) {
				mustTk(m.SubmitRegister(name, funds))
				expected += ledger.FromFloat(funds)
			}

			for round, point := range points {
				cfg := fedConfig(dir, 2)
				if point != "" {
					kill := point
					cfg.testCrash = func(p string) error {
						if p == kill {
							return fmt.Errorf("injected death at %s", p)
						}
						return nil
					}
				}
				m, err := Open(cfg)
				if err != nil {
					t.Fatalf("round %d open: %v", round, err)
				}

				// Fresh participants and globally fresh column names per round,
				// split so the want always spans shards 0 and 1.
				buyer := nameOn(t, fmt.Sprintf("pb%d-", round), 0, 2)
				sellA := nameOn(t, fmt.Sprintf("pa%d-", round), 0, 2)
				sellB := nameOn(t, fmt.Sprintf("ps%d-", round), 1, 2)
				deposit(m, buyer, 2000+float64(rnd.Intn(8))*500)
				deposit(m, sellA, float64(rnd.Intn(3))*100)
				deposit(m, sellB, float64(rnd.Intn(3))*100)
				left, right := fmt.Sprintf("pl%d", round), fmt.Sprintf("pr%d", round)
				openShare(t, m, sellA, sellA+"/d0", keyedRel(sellA+"/d0", left, 20))
				openShare(t, m, sellB, sellB+"/d0", keyedRel(sellB+"/d0", right, 30))
				m.TriggerEpoch()

				w, f := joinWant(buyer, 900, left, right)
				tk := mustTk(m.SubmitRequest(w, f))
				settled := m.CoordRound()
				if point == "" && settled != 1 {
					t.Fatalf("round %d clean settle count = %d", round, settled)
				}
				// Mid-flight (even mid-crash) the supply may dip while escrow is
				// in transit between ledgers, but money is never created.
				if got := m.TotalSupply(); got > expected {
					t.Fatalf("round %d (%s): live supply %v exceeds deposits %v", round, point, got, expected)
				}
				m.Stop()

				// Recover from the logs alone and audit the whole federation.
				m2, err := Open(fedConfig(dir, 2))
				if err != nil {
					t.Fatalf("round %d recovery: %v", round, err)
				}
				if got := m2.TotalSupply(); got != expected {
					t.Fatalf("round %d (%s): recovered supply %v, want %v", round, point, got, expected)
				}
				for _, sh := range m2.Shards() {
					if i := sh.Platform.Arbiter.Ledger.VerifyChain(); i >= 0 {
						t.Fatalf("round %d (%s): shard %d audit chain corrupt at %d", round, point, sh.Index, i)
					}
					if len(sh.Engine.XTxHeld()) != 0 {
						t.Fatalf("round %d (%s): shard %d escrow in flight after recovery", round, point, sh.Index)
					}
				}
				// A pre-decide kill presumed-abort; the want retries under a
				// fresh xid and the retry must not move the supply either.
				if pending, _, _ := m2.CoordStats(); pending > 0 {
					if n := m2.CoordRound(); n != pending {
						t.Fatalf("round %d (%s): retry settled %d of %d pending", round, point, n, pending)
					}
					if got := m2.TotalSupply(); got != expected {
						t.Fatalf("round %d (%s): supply %v after retry, want %v", round, point, got, expected)
					}
				}
				if tkv, ok := m2.Ticket(tk); !ok || tkv.Status != engine.TicketDone {
					t.Fatalf("round %d (%s): want %s not settled after recovery: %+v", round, point, tk, tkv)
				}
				if pending, committed, _ := m2.CoordStats(); pending != 0 || committed != uint64(round+1) {
					t.Fatalf("round %d (%s): %d wants open and %d sales committed, want 0 and %d", round, point, pending, committed, round+1)
				}
				m2.Stop()
			}
		})
	}
}
