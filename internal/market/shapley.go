package market

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ValueFunc is the characteristic function of the revenue-allocation
// coalition game: v(S) is the value a mashup built only from the datasets in
// S would achieve (e.g. the price a buyer's WTP-function would pay for it).
// It must satisfy v(∅)=0.
type ValueFunc func(coalition map[string]bool) float64

// Allocator splits a total price among the contributing datasets
// (paper §3.2.3 "Revenue allocation").
type Allocator interface {
	Name() string
	// Allocate returns non-negative weights per player summing to ~1
	// (all-zero when the grand coalition has no value).
	Allocate(players []string, v ValueFunc) map[string]float64
}

// coalitionOf builds the membership set for a subset bitmask.
func coalitionOf(players []string, mask uint) map[string]bool {
	s := make(map[string]bool, len(players))
	for i, p := range players {
		if mask&(1<<uint(i)) != 0 {
			s[p] = true
		}
	}
	return s
}

// ShapleyExact enumerates all 2^n coalitions — exact but exponential; the
// paper notes "the complexity of computing the Shapley value" motivates
// approximations (experiment E5 measures the crossover).
type ShapleyExact struct{}

// exactFeasibleMax is the hard enumeration bound: past 2^24 coalition values
// the table alone is 128 MiB and the marginal sweep 24·2^24 float ops, so
// requests beyond it auto-escalate to sampling rather than attempt (or, as
// older versions did, panic mid-settlement).
const exactFeasibleMax = 24

// Name implements Allocator.
func (ShapleyExact) Name() string { return "shapley_exact" }

// Allocate implements Allocator.
func (e ShapleyExact) Allocate(players []string, v ValueFunc) map[string]float64 {
	return e.AllocateCtx(players, v, AllocContext{})
}

// AllocateCtx implements CtxAllocator. Wide games (n > 24) never panic the
// settlement path: they escalate to the adaptive sampled allocator, counted
// in market_allocator_escalations_total.
func (ShapleyExact) AllocateCtx(players []string, v ValueFunc, ctx AllocContext) map[string]float64 {
	n := len(players)
	if n == 0 {
		return nil
	}
	if n > exactFeasibleMax {
		allocEscalations.Add(1)
		return AdaptiveShapley{}.AllocateCtx(players, v, ctx)
	}
	allocExactRuns.Add(1)
	return exactShapley(players, counted(v))
}

// exactShapley runs the full 2^n enumeration. Callers enforce the
// feasibility bound.
func exactShapley(players []string, v ValueFunc) map[string]float64 {
	n := len(players)
	// Cache v over all subsets.
	vals := make([]float64, 1<<uint(n))
	for mask := uint(1); mask < 1<<uint(n); mask++ {
		vals[mask] = v(coalitionOf(players, mask))
	}
	phi := make([]float64, n)
	fact := factorials(n)
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		size := popcount(mask)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			marginal := vals[mask|1<<uint(i)] - vals[mask]
			// Weight: |S|!(n-|S|-1)!/n!
			w := fact[size] * fact[n-size-1] / fact[n]
			phi[i] += w * marginal
		}
	}
	return normalizeWeights(players, phi, vals[1<<uint(n)-1])
}

func factorials(n int) []float64 {
	f := make([]float64, n+1)
	f[0] = 1
	for i := 1; i <= n; i++ {
		f[i] = f[i-1] * float64(i)
	}
	return f
}

func popcount(x uint) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// normalizeWeights turns raw marginals into non-negative weights summing to
// 1. grandValue is v(N): when every marginal is ≤ 0 but the grand coalition
// still has value — perfect substitutes, where v(N\{i}) = v(N) for every i —
// the weights would sum to 0 and the revenue would silently never be paid
// out, so the split falls back to uniform. Only a genuinely worthless grand
// coalition (grandValue ≤ 0) yields all-zero weights.
func normalizeWeights(players []string, phi []float64, grandValue float64) map[string]float64 {
	var total float64
	for _, p := range phi {
		if p > 0 {
			total += p
		}
	}
	if total <= 0 && grandValue > 0 {
		return Uniform{}.Allocate(players, nil)
	}
	out := make(map[string]float64, len(players))
	for i, p := range players {
		w := phi[i]
		if w < 0 {
			w = 0
		}
		if total > 0 {
			w /= total
		}
		out[p] = w
	}
	return out
}

// ShapleyMonteCarlo estimates Shapley values by sampling random permutations
// and accumulating marginal contributions — the "computationally efficient
// alternative that maintains the good properties" (paper §3.2.3).
type ShapleyMonteCarlo struct {
	Samples int
	Seed    int64
}

// Name implements Allocator.
func (m ShapleyMonteCarlo) Name() string { return fmt.Sprintf("shapley_mc(%d)", m.Samples) }

// Allocate implements Allocator: the legacy fixed-seed path (every call
// samples the same permutations).
func (m ShapleyMonteCarlo) Allocate(players []string, v ValueFunc) map[string]float64 {
	return m.AllocateCtx(players, v, AllocContext{})
}

// AllocateCtx implements CtxAllocator: when the context carries a settlement
// seed it is mixed into the design's base seed, so each settlement draws its
// own permutations while replay — which re-derives the same settlement seed —
// stays byte-identical. A zero context preserves the legacy fixed-seed
// behavior exactly.
func (m ShapleyMonteCarlo) AllocateCtx(players []string, v ValueFunc, ctx AllocContext) map[string]float64 {
	n := len(players)
	if n == 0 {
		return nil
	}
	allocSampledRuns.Add(1)
	v = counted(v)
	samples := m.Samples
	if samples <= 0 {
		samples = 200
	}
	seed := m.Seed
	if ctx.Seed != 0 {
		seed = mixSeed(seed, ctx.Seed)
	}
	rng := rand.New(rand.NewSource(seed))
	phi := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	coalition := make(map[string]bool, n)
	grand := 0.0
	for s := 0; s < samples; s++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for k := range coalition {
			delete(coalition, k)
		}
		prev := 0.0
		for _, i := range perm {
			coalition[players[i]] = true
			cur := v(coalition)
			phi[i] += cur - prev
			prev = cur
		}
		grand = prev // v of the full coalition; identical every sample
	}
	for i := range phi {
		phi[i] /= float64(samples)
	}
	return normalizeWeights(players, phi, grand)
}

// LeaveOneOut allocates by each player's marginal contribution to the grand
// coalition: v(N) - v(N\{i}). Cheap (n+1 evaluations) but ignores synergy
// structure.
type LeaveOneOut struct{}

// Name implements Allocator.
func (LeaveOneOut) Name() string { return "leave_one_out" }

// Allocate implements Allocator. It is deterministic, so it takes no
// AllocContext.
func (LeaveOneOut) Allocate(players []string, v ValueFunc) map[string]float64 {
	n := len(players)
	if n == 0 {
		return nil
	}
	v = counted(v)
	grand := map[string]bool{}
	for _, p := range players {
		grand[p] = true
	}
	total := v(grand)
	phi := make([]float64, n)
	for i, p := range players {
		delete(grand, p)
		phi[i] = total - v(grand)
		grand[p] = true
	}
	// Degenerate cases: perfect complements (all marginals equal total) just
	// normalize; perfect substitutes (v(N\{i}) = v(N) for every i, so all
	// marginals are 0 while v(N) > 0) fall back to a uniform split inside
	// normalizeWeights instead of allocating nothing.
	return normalizeWeights(players, phi, total)
}

// Uniform splits equally — the naive baseline.
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (Uniform) Allocate(players []string, v ValueFunc) map[string]float64 {
	out := make(map[string]float64, len(players))
	if len(players) == 0 {
		return out
	}
	w := 1.0 / float64(len(players))
	for _, p := range players {
		out[p] = w
	}
	return out
}

// inCoreMax is the largest player count InCore will enumerate (2^20
// coalitions).
const inCoreMax = 20

// InCore checks whether an allocation of `total` by `weights` lies in the
// core of the game: no coalition S gets less than v(S) (paper §8.2 cites the
// core as an alternative to Shapley). Exponential — use for n ≤ 20; beyond
// that it returns an error rather than panicking from library code.
func InCore(players []string, v ValueFunc, weights map[string]float64, total float64) (bool, error) {
	n := len(players)
	if n > inCoreMax {
		return false, fmt.Errorf("market: core check with %d players is infeasible (max %d)", n, inCoreMax)
	}
	for mask := uint(1); mask < 1<<uint(n); mask++ {
		s := coalitionOf(players, mask)
		var got float64
		for p := range s {
			got += weights[p] * total
		}
		if got < v(s)-1e-9 {
			return false, nil
		}
	}
	return true, nil
}

// ShapleyError measures the L1 distance between two weight maps — used by
// E5 to quantify Monte-Carlo approximation error.
func ShapleyError(a, b map[string]float64) float64 {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var sum float64
	for k := range keys {
		sum += math.Abs(a[k] - b[k])
	}
	return sum
}

// SortedPlayers returns map keys sorted, for deterministic iteration.
func SortedPlayers(weights map[string]float64) []string {
	out := make([]string, 0, len(weights))
	for k := range weights {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
