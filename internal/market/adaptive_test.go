package market

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// --- game builders with analytic Shapley ground truth ----------------------

// substitutesGame: v(S) = 100 for every non-empty S. True split: uniform.
func substitutesGame() ValueFunc {
	return func(s map[string]bool) float64 {
		if len(s) > 0 {
			return 100
		}
		return 0
	}
}

// complementsGame: v(S) = 100 only for the grand coalition. True split:
// uniform.
func complementsGame(n int) ValueFunc {
	return func(s map[string]bool) float64 {
		if len(s) == n {
			return 100
		}
		return 0
	}
}

// mixedSynergyGame: additive per-player values w_i = i+1 plus a bonus for
// each adjacent pair present. By linearity of the Shapley value the bonus of
// a pair splits evenly between its two members, so the truth is analytic.
func mixedSynergyGame(players []string, bonus float64) (ValueFunc, map[string]float64) {
	n := len(players)
	w := map[string]float64{}
	for i, p := range players {
		w[p] = float64(i + 1)
	}
	v := func(s map[string]bool) float64 {
		var sum float64
		for p, in := range s {
			if in {
				sum += w[p]
			}
		}
		for i := 0; i+1 < n; i++ {
			if s[players[i]] && s[players[i+1]] {
				sum += bonus
			}
		}
		return sum
	}
	phi := map[string]float64{}
	var grand float64
	for _, p := range players {
		phi[p] = w[p]
		grand += w[p]
	}
	for i := 0; i+1 < n; i++ {
		phi[players[i]] += bonus / 2
		phi[players[i+1]] += bonus / 2
		grand += bonus
	}
	truth := map[string]float64{}
	for _, p := range players {
		truth[p] = phi[p] / grand
	}
	return v, truth
}

func mkPlayers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("d%02d", i)
	}
	return out
}

func uniformTruth(players []string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range players {
		out[p] = 1 / float64(len(players))
	}
	return out
}

// --- accuracy --------------------------------------------------------------

// TestAdaptiveAccuracyTable is the exact-vs-sampled accuracy table over
// 2–20-source games: the sampled path (forced via ExactMax 1) must land
// within the configured L1 error bound of the analytic Shapley split for
// substitutes, complements, and mixed-synergy structure. Seeds are fixed, so
// the assertion is deterministic.
func TestAdaptiveAccuracyTable(t *testing.T) {
	const target = 0.05
	for n := 2; n <= 20; n++ {
		players := mkPlayers(n)
		mixedV, mixedTruth := mixedSynergyGame(players, float64(n)/2)
		cases := []struct {
			game  string
			v     ValueFunc
			truth map[string]float64
		}{
			{"substitutes", substitutesGame(), uniformTruth(players)},
			{"complements", complementsGame(n), uniformTruth(players)},
			{"mixed", mixedV, mixedTruth},
		}
		for _, tc := range cases {
			alloc := AdaptiveShapley{ExactMax: 1, TargetErr: target, MaxSamples: 200000, Seed: 42}
			got := alloc.AllocateCtx(players, tc.v, AllocContext{Seed: int64(n)})
			if err := ShapleyError(got, tc.truth); err > target {
				t.Errorf("n=%d %s: sampled L1 error %.4f > %.2f (got %v)", n, tc.game, err, target, got)
			}
			var sum float64
			for _, w := range got {
				if w < 0 {
					t.Errorf("n=%d %s: negative weight", n, tc.game)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("n=%d %s: weights sum to %v", n, tc.game, sum)
			}
		}
	}
}

// TestAdaptiveExactBelowThreshold pins that at or below ExactMax the adaptive
// allocator is exactly ShapleyExact — identical weights, no sampling.
func TestAdaptiveExactBelowThreshold(t *testing.T) {
	players := mkPlayers(8)
	v, _ := mixedSynergyGame(players, 3)
	before := AllocCounters()
	want := ShapleyExact{}.Allocate(players, v)
	got := AdaptiveShapley{}.Allocate(players, v)
	if err := ShapleyError(got, want); err > 1e-12 {
		t.Fatalf("adaptive below threshold diverges from exact: L1=%v", err)
	}
	after := AllocCounters()
	if after.SampledRuns != before.SampledRuns {
		t.Fatalf("adaptive sampled a game below ExactMax")
	}
	if after.ExactRuns < before.ExactRuns+2 {
		t.Fatalf("exact runs not counted: %+v -> %+v", before, after)
	}
}

// TestAdaptiveStopsEarlyOnZeroVariance: in an additive game every
// permutation yields identical marginals, so the confidence bound hits zero
// at MinSamples and sampling stops far below MaxSamples — the "adaptive"
// half of the allocator's name. Eval counting proves it.
func TestAdaptiveStopsEarlyOnZeroVariance(t *testing.T) {
	players := mkPlayers(18)
	vals := map[string]float64{}
	truth := map[string]float64{}
	var total float64
	for i, p := range players {
		vals[p] = float64(i + 1)
		total += float64(i + 1)
	}
	for _, p := range players {
		truth[p] = vals[p] / total
	}
	alloc := AdaptiveShapley{MinSamples: 64, MaxSamples: 100000, Seed: 9}
	before := AllocCounters()
	got := alloc.Allocate(players, additive(vals))
	spent := AllocCounters().Evals - before.Evals
	if err := ShapleyError(got, truth); err > 1e-6 {
		t.Fatalf("additive sampled split off by %v: %v", err, got)
	}
	// 64 permutations (the minimum) plus the batch boundary and the grand
	// evaluation: far below the 100000-permutation budget.
	maxEvals := uint64((64 + sampleBatch) * 18)
	if spent > maxEvals {
		t.Fatalf("zero-variance game burned %d evals, want <= %d (stopping rule broken?)", spent, maxEvals)
	}
}

// TestAdaptiveEvalAdvantage is the deterministic core of the benchmark claim:
// at 16 players the adaptive allocator must solve a structured game in at
// most a tenth of exact enumeration's characteristic-function evaluations
// while staying inside the error bound.
func TestAdaptiveEvalAdvantage(t *testing.T) {
	players := mkPlayers(16)
	v, truth := mixedSynergyGame(players, 8)

	before := AllocCounters()
	exact := ShapleyExact{}.Allocate(players, v)
	exactEvals := AllocCounters().Evals - before.Evals

	before = AllocCounters()
	sampled := AdaptiveShapley{Seed: 3}.AllocateCtx(players, v, AllocContext{Seed: 17})
	sampledEvals := AllocCounters().Evals - before.Evals

	if sampledEvals*10 > exactEvals {
		t.Fatalf("adaptive used %d evals, exact %d: less than 10x advantage", sampledEvals, exactEvals)
	}
	if err := ShapleyError(sampled, truth); err > 0.05 {
		t.Fatalf("sampled L1 error %v > 0.05", err)
	}
	if err := ShapleyError(exact, truth); err > 1e-9 {
		t.Fatalf("exact disagrees with analytic truth by %v", err)
	}
}

// --- memoization -----------------------------------------------------------

// TestCoalitionMemoHitRate: a second allocation of the same game against the
// same memo answers every coalition evaluation from cache.
func TestCoalitionMemoHitRate(t *testing.T) {
	players := mkPlayers(6)
	v, _ := mixedSynergyGame(players, 2)
	memo := NewCoalitionMemo()
	a := AdaptiveShapley{} // n=6: exact path, enumerates all 2^6-1 coalitions
	w1 := a.AllocateCtx(players, v, AllocContext{Memo: memo})
	afterFirst := memo.Stats()
	if afterFirst.Hits != 0 || afterFirst.Misses != 63 || afterFirst.Entries != 63 {
		t.Fatalf("first pass stats = %+v, want 63 misses/entries", afterFirst)
	}
	w2 := a.AllocateCtx(players, v, AllocContext{Memo: memo})
	afterSecond := memo.Stats()
	if afterSecond.Hits != 63 || afterSecond.Misses != 63 {
		t.Fatalf("second pass stats = %+v, want all 63 evaluations answered from cache", afterSecond)
	}
	if err := ShapleyError(w1, w2); err != 0 {
		t.Fatalf("memoized reruns disagree: %v", err)
	}
}

// TestCoalitionMemoSampledPath: the sampled path reuses cached coalition
// values too — same seed means the same permutation prefixes, so a rerun is
// answered entirely from cache.
func TestCoalitionMemoSampledPath(t *testing.T) {
	players := mkPlayers(15)
	v, _ := mixedSynergyGame(players, 4)
	memo := NewCoalitionMemo()
	a := AdaptiveShapley{ExactMax: 1, Seed: 11}
	ctx := AllocContext{Seed: 99, Memo: memo}
	w1 := a.AllocateCtx(players, v, ctx)
	first := memo.Stats()
	w2 := a.AllocateCtx(players, v, ctx)
	second := memo.Stats()
	if second.Hits-first.Hits < first.Misses {
		t.Fatalf("rerun hit only %d of %d cached coalitions", second.Hits-first.Hits, first.Misses)
	}
	if err := ShapleyError(w1, w2); err != 0 {
		t.Fatalf("same-seed memoized reruns disagree: L1=%v", err)
	}
}

// TestRoundMemoScopesByGame: one round memo keeps distinct games' coalition
// values apart while handing the same game the same memo; nil round memos are
// inert.
func TestRoundMemoScopesByGame(t *testing.T) {
	rm := NewRoundMemo()
	if rm.Game("g1") != rm.Game("g1") {
		t.Fatal("same game key must share a memo")
	}
	if rm.Game("g1") == rm.Game("g2") {
		t.Fatal("distinct game keys must not share a memo")
	}
	players := mkPlayers(4)
	g1 := additive(map[string]float64{"d00": 1, "d01": 1, "d02": 1, "d03": 1})
	g2 := additive(map[string]float64{"d00": 8, "d01": 4, "d02": 2, "d03": 1})
	w1 := AdaptiveShapley{}.AllocateCtx(players, g1, AllocContext{Memo: rm.Game("g1")})
	w2 := AdaptiveShapley{}.AllocateCtx(players, g2, AllocContext{Memo: rm.Game("g2")})
	if ShapleyError(w1, w2) == 0 {
		t.Fatal("distinct games produced identical splits through the round memo (cross-game pollution?)")
	}
	st := rm.Stats()
	if st.Games != 2 || st.Entries == 0 {
		t.Fatalf("round memo stats = %+v", st)
	}
	var nilRM *RoundMemo
	if nilRM.Game("x") != nil {
		t.Fatal("nil round memo must hand out nil coalition memos")
	}
	if got := nilRM.Stats(); got != (MemoStats{}) {
		t.Fatalf("nil round memo stats = %+v", got)
	}
}

// --- escalation (the n>24 panic fix) ---------------------------------------

// TestExactEscalatesInsteadOfPanicking pins the settlement-crash fix: a
// 25-player game through ShapleyExact must not panic — it escalates to the
// sampled allocator, counts the escalation, and still produces a valid
// near-truth split (the additive game has zero sampling variance).
func TestExactEscalatesInsteadOfPanicking(t *testing.T) {
	players := mkPlayers(25)
	vals := map[string]float64{}
	truth := map[string]float64{}
	var total float64
	for i, p := range players {
		vals[p] = float64(i + 1)
		total += float64(i + 1)
	}
	for _, p := range players {
		truth[p] = vals[p] / total
	}
	before := AllocCounters()
	w := ShapleyExact{}.Allocate(players, additive(vals))
	after := AllocCounters()
	if after.Escalations != before.Escalations+1 {
		t.Fatalf("escalation not counted: %d -> %d", before.Escalations, after.Escalations)
	}
	if after.SampledRuns != before.SampledRuns+1 {
		t.Fatalf("escalated run not sampled")
	}
	if err := ShapleyError(w, truth); err > 1e-6 {
		t.Fatalf("escalated additive split off by %v", err)
	}
}

// TestShareRevenue25Sources is the settlement-layer regression: a 25-source
// mashup priced through a ShapleyExact design used to panic mid-settlement;
// now it settles with a conserved, near-proportional split.
func TestShareRevenue25Sources(t *testing.T) {
	const n = 25
	// Source i contributes i+1 rows, each with lineage in that source alone.
	anno := &provenance.Annotated{Rel: relation.New("wide", relation.NewSchema(relation.Col("k", relation.KindInt)))}
	rowsOf := map[string]int{}
	rowID := 0
	for i := 0; i < n; i++ {
		ds := fmt.Sprintf("s%02d/d0", i)
		rowsOf[ds] = i + 1
		for r := 0; r < i+1; r++ {
			anno.Rel.MustAppend(relation.Int(int64(rowID)))
			anno.Lineage = append(anno.Lineage, provenance.Lineage{{Dataset: ds, Row: r}})
			rowID++
		}
	}
	d := &Design{
		Label: "wide", Goal: GoalRevenue, Type: TypeExternal, Elicitation: ElicitUpfront,
		Mechanism: PostedPrice{P: 100}, Allocator: ShapleyExact{}, ArbiterFee: 0.05,
	}
	split := d.ShareRevenueCtx(100, anno, nil, nil, AllocContext{Seed: SeedFromID("tx-0001")})
	if len(split.SellerCut) != n {
		t.Fatalf("split covers %d sellers, want %d", len(split.SellerCut), n)
	}
	pool := 100 * (1 - d.ArbiterFee)
	var sum float64
	for ds, cut := range split.SellerCut {
		sum += cut
		wantCut := pool * float64(rowsOf[ds]) / float64(rowID)
		if math.Abs(cut-wantCut) > pool*0.01 {
			t.Errorf("%s cut %.4f, want ~%.4f", ds, cut, wantCut)
		}
	}
	if math.Abs(sum+split.ArbiterCut-100) > 1e-6 {
		t.Fatalf("split does not conserve revenue: sellers %.6f + arbiter %.6f != 100", sum, split.ArbiterCut)
	}
}

// --- replay-safe seeding ---------------------------------------------------

func TestSeedFromID(t *testing.T) {
	a, b := SeedFromID("tx-0001"), SeedFromID("tx-0002")
	if a == b {
		t.Fatal("distinct settlement IDs produced equal seeds")
	}
	if a != SeedFromID("tx-0001") {
		t.Fatal("seed derivation is not deterministic")
	}
	if SeedFromID("") == 0 || a == 0 {
		t.Fatal("seeds must be nonzero so allocators can detect 'no context seed'")
	}
}

// TestSettlementSeedVariesPermutations pins the fixed-per-design-seed fix:
// the Monte-Carlo allocator must sample different permutations for different
// settlements (different ctx seeds), identical ones for a replayed settlement
// (same ctx seed), and keep legacy behavior under a zero context.
func TestSettlementSeedVariesPermutations(t *testing.T) {
	players := mkPlayers(10)
	v, _ := mixedSynergyGame(players, 5)
	mc := ShapleyMonteCarlo{Samples: 40, Seed: 7}
	tx1 := AllocContext{Seed: SeedFromID("tx-0001")}
	tx2 := AllocContext{Seed: SeedFromID("tx-0002")}
	w1 := mc.AllocateCtx(players, v, tx1)
	w2 := mc.AllocateCtx(players, v, tx2)
	if ShapleyError(w1, w2) == 0 {
		t.Fatal("two settlements sampled identical permutations despite distinct seeds")
	}
	if err := ShapleyError(w1, mc.AllocateCtx(players, v, tx1)); err != 0 {
		t.Fatalf("replayed settlement diverged by %v", err)
	}
	if err := ShapleyError(mc.Allocate(players, v), mc.AllocateCtx(players, v, AllocContext{})); err != 0 {
		t.Fatalf("zero context changed the legacy path by %v", err)
	}
	// Same for the adaptive allocator's sampled path.
	ad := AdaptiveShapley{ExactMax: 1, Seed: 7, MinSamples: 32, MaxSamples: 32}
	a1, a2 := ad.AllocateCtx(players, v, tx1), ad.AllocateCtx(players, v, tx2)
	if ShapleyError(a1, a2) == 0 {
		t.Fatal("adaptive sampled path ignored the settlement seed")
	}
	if err := ShapleyError(a1, ad.AllocateCtx(players, v, tx1)); err != 0 {
		t.Fatalf("adaptive replay diverged by %v", err)
	}
}

// --- incremental one-dataset-added update ----------------------------------

// TestAllocateAddIncremental: growing a mashup by one dataset updates the
// split by estimating only the newcomer's share; on structured games the
// result stays within the error bound of the full re-solve.
func TestAllocateAddIncremental(t *testing.T) {
	players := mkPlayers(14)
	grown := append(append([]string{}, players...), "dNEW")
	vals := map[string]float64{}
	var total float64
	for i, p := range players {
		vals[p] = float64(i + 1)
		total += float64(i + 1)
	}
	vals["dNEW"] = 30
	total += 30
	v := additive(vals)
	truth := map[string]float64{}
	for _, p := range grown {
		truth[p] = vals[p] / total
	}

	prev := AdaptiveShapley{}.Allocate(players, additive(vals))
	before := AllocCounters()
	got := AdaptiveShapley{Seed: 21}.AllocateAdd(grown, "dNEW", prev, v, AllocContext{Seed: 5})
	after := AllocCounters()
	if after.Incremental != before.Incremental+1 {
		t.Fatal("incremental update not counted")
	}
	if err := ShapleyError(got, truth); err > 0.05 {
		t.Fatalf("incremental split L1 error %v > 0.05: %v", err, got)
	}
	var sum float64
	for _, w := range got {
		if w < 0 {
			t.Fatal("negative incremental weight")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("incremental weights sum to %v", sum)
	}
	// The point of the incremental path: far fewer evaluations than the
	// sampled full re-solve's n-evals-per-permutation.
	if spent := after.Evals - before.Evals; spent > 2*uint64(defaultMaxSamples) {
		t.Fatalf("incremental update burned %d evals", spent)
	}
}
