package market

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"
)

// This file is the scalable revenue-allocation layer (paper §3.2.3: "the
// complexity of computing the Shapley value" motivates approximations):
//
//   - AllocContext threads per-settlement identity (the sampler seed) into
//     any allocator that can use it.
//   - AdaptiveShapley runs exact enumeration below a player threshold and
//     permutation-sampled Shapley above it, with a running confidence bound
//     that stops sampling once the estimated L1 error of the split drops
//     under a target.

// AllocContext carries the optional input of one revenue allocation: a
// deterministic sampler seed derived from the settlement's identity, so
// crash/replay re-derives byte-identical splits (see SeedFromID). The zero
// value is always safe: allocators fall back to their configured seed.
type AllocContext struct {
	// Seed, when nonzero, is mixed into the allocator's own seed so every
	// settlement samples its own permutations while staying a pure function
	// of the settlement identity.
	Seed int64
}

// CtxAllocator is implemented by allocators that accept a per-settlement
// AllocContext. AllocateWith dispatches through it.
type CtxAllocator interface {
	Allocator
	AllocateCtx(players []string, v ValueFunc, ctx AllocContext) map[string]float64
}

// AllocateWith runs an allocator with the given context when it supports one,
// falling back to the plain Allocate path otherwise.
func AllocateWith(a Allocator, players []string, v ValueFunc, ctx AllocContext) map[string]float64 {
	if ca, ok := a.(CtxAllocator); ok {
		return ca.AllocateCtx(players, v, ctx)
	}
	return a.Allocate(players, v)
}

// SeedFromID derives a deterministic, nonzero sampler seed from a settlement
// identity (transaction ID). Replaying or re-driving the same settlement
// yields the same seed, which is what keeps sampled revenue splits
// byte-identical across crash/replay.
func SeedFromID(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// mixSeed folds a settlement seed into an allocator's base seed (splitmix64
// finalizer) so distinct settlements draw distinct permutation streams.
func mixSeed(base, ctx int64) int64 {
	x := uint64(base) ^ (uint64(ctx) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	s := int64(x)
	if s == 0 {
		s = 1
	}
	return s
}

// --- allocator counters ----------------------------------------------------

// Process-wide allocation counters, sampled by the engine's stats surface and
// exported as market_allocator_* metrics. They are monotone and shared across
// every design in the process (allocators are value types with no home for
// per-instance state); tests assert on deltas.
var (
	allocExactRuns   atomic.Uint64 // allocations solved by exact enumeration
	allocSampledRuns atomic.Uint64 // allocations solved by permutation sampling
	allocEscalations atomic.Uint64 // exact requests auto-escalated to sampling
	allocEvals       atomic.Uint64 // characteristic-function evaluations run
)

// AllocCounts is a snapshot of the process-wide allocation counters.
type AllocCounts struct {
	ExactRuns   uint64
	SampledRuns uint64
	Escalations uint64
	Evals       uint64
}

// AllocCounters snapshots the process-wide allocation counters.
func AllocCounters() AllocCounts {
	return AllocCounts{
		ExactRuns:   allocExactRuns.Load(),
		SampledRuns: allocSampledRuns.Load(),
		Escalations: allocEscalations.Load(),
		Evals:       allocEvals.Load(),
	}
}

// counted wraps v so that every evaluation is counted in allocEvals.
func counted(v ValueFunc) ValueFunc {
	return func(s map[string]bool) float64 {
		allocEvals.Add(1)
		return v(s)
	}
}

// --- adaptive allocator ----------------------------------------------------

// Defaults for AdaptiveShapley's zero fields.
const (
	defaultExactMax   = 12
	defaultTargetErr  = 0.05
	defaultMinSamples = 64
	defaultMaxSamples = 10000
	// sampleBatch is how many permutations run between stopping-rule checks.
	sampleBatch = 16
	// confidenceZ is the normal quantile of the per-player confidence
	// interval the stopping rule sums (z = 1.96 ≈ 95%).
	confidenceZ = 1.96
)

// AdaptiveShapley is the settlement-path allocator: exact Shapley enumeration
// while the player count stays at or below ExactMax, permutation-sampled
// Shapley above it. Sampling runs in batches and stops as soon as the
// estimated L1 error of the split — the sum of per-player confidence
// intervals normalized by the grand-coalition value — drops under TargetErr,
// so cheap games (low-variance marginals) finish in a few dozen permutations
// while adversarial ones are bounded by MaxSamples. Allocation is a pure
// function of (players, v, seed): with AllocContext.Seed derived from the
// settlement identity, crash/replay re-derives identical splits.
type AdaptiveShapley struct {
	// ExactMax is the largest player count solved by exact enumeration
	// (default 12: 4096 coalition values).
	ExactMax int
	// TargetErr is the estimated-L1-error stopping bound for the sampled
	// path (default 0.05).
	TargetErr float64
	// MinSamples / MaxSamples bound the permutation count (defaults 64 /
	// 10000). MaxSamples is the hard guard for games whose variance never
	// satisfies TargetErr.
	MinSamples int
	MaxSamples int
	// Seed is the base sampler seed, mixed with AllocContext.Seed.
	Seed int64
}

func (a AdaptiveShapley) params() (exactMax int, target float64, minS, maxS int) {
	exactMax = a.ExactMax
	if exactMax <= 0 {
		exactMax = defaultExactMax
	}
	target = a.TargetErr
	if target <= 0 {
		target = defaultTargetErr
	}
	minS = a.MinSamples
	if minS <= 0 {
		minS = defaultMinSamples
	}
	maxS = a.MaxSamples
	if maxS <= 0 {
		maxS = defaultMaxSamples
	}
	if maxS < minS {
		maxS = minS
	}
	return exactMax, target, minS, maxS
}

// Name implements Allocator.
func (a AdaptiveShapley) Name() string {
	exactMax, target, _, _ := a.params()
	return fmt.Sprintf("shapley_adaptive(exact<=%d,err<=%g)", exactMax, target)
}

// Allocate implements Allocator with a zero context.
func (a AdaptiveShapley) Allocate(players []string, v ValueFunc) map[string]float64 {
	return a.AllocateCtx(players, v, AllocContext{})
}

// AllocateCtx implements CtxAllocator.
func (a AdaptiveShapley) AllocateCtx(players []string, v ValueFunc, ctx AllocContext) map[string]float64 {
	n := len(players)
	if n == 0 {
		return nil
	}
	exactMax, target, minS, maxS := a.params()
	mv := counted(v)
	if n <= exactMax {
		allocExactRuns.Add(1)
		return exactShapley(players, mv)
	}
	allocSampledRuns.Add(1)
	return sampledShapley(players, mv, a.seedFor(ctx), target, minS, maxS)
}

// seedFor resolves the effective sampler seed from the allocator's base seed
// and the context's settlement seed.
func (a AdaptiveShapley) seedFor(ctx AllocContext) int64 {
	seed := a.Seed
	if ctx.Seed != 0 {
		seed = mixSeed(seed, ctx.Seed)
	}
	if seed == 0 {
		seed = 1
	}
	return seed
}

// sampledShapley estimates Shapley values by sampling random permutations,
// tracking per-player marginal variance (Welford) and stopping once the
// summed confidence interval, normalized by the grand-coalition value, drops
// under target.
func sampledShapley(players []string, v ValueFunc, seed int64, target float64, minS, maxS int) map[string]float64 {
	n := len(players)
	grandSet := make(map[string]bool, n)
	for _, p := range players {
		grandSet[p] = true
	}
	grand := v(grandSet)

	rng := rand.New(rand.NewSource(seed))
	mean := make([]float64, n)
	m2 := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	coalition := make(map[string]bool, n)
	samples := 0
	for samples < maxS {
		for b := 0; b < sampleBatch && samples < maxS; b++ {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for k := range coalition {
				delete(coalition, k)
			}
			samples++
			prev := 0.0
			for _, i := range perm {
				coalition[players[i]] = true
				cur := v(coalition)
				d := cur - prev
				prev = cur
				delta := d - mean[i]
				mean[i] += delta / float64(samples)
				m2[i] += delta * (d - mean[i])
			}
		}
		if grand <= 0 {
			// Worthless (or negative) grand coalition: the split is all-zero
			// regardless of further samples.
			break
		}
		if samples >= minS && estimatedL1Error(m2, samples, grand) <= target {
			break
		}
	}
	return normalizeWeights(players, mean, grand)
}

// estimatedL1Error bounds the L1 distance between the sampled split and the
// true Shapley split: the per-player z·stderr of the marginal mean, summed
// and normalized by the grand-coalition value (efficiency makes the true
// weights phi_i / v(N)).
func estimatedL1Error(m2 []float64, samples int, grand float64) float64 {
	if samples < 2 {
		return math.Inf(1)
	}
	var sum float64
	for _, x := range m2 {
		variance := x / float64(samples-1)
		if variance < 0 {
			variance = 0
		}
		sum += confidenceZ * math.Sqrt(variance/float64(samples))
	}
	return sum / grand
}
