package market

import (
	"fmt"
	"math"
	"testing"
)

// additive game: v(S) = sum of per-player values.
func additive(vals map[string]float64) ValueFunc {
	return func(s map[string]bool) float64 {
		var sum float64
		for p := range s {
			sum += vals[p]
		}
		return sum
	}
}

func TestShapleyExactAdditive(t *testing.T) {
	players := []string{"x", "y", "z"}
	v := additive(map[string]float64{"x": 10, "y": 30, "z": 60})
	w := ShapleyExact{}.Allocate(players, v)
	if math.Abs(w["x"]-0.1) > 1e-9 || math.Abs(w["y"]-0.3) > 1e-9 || math.Abs(w["z"]-0.6) > 1e-9 {
		t.Errorf("additive shapley = %v", w)
	}
}

func TestShapleySymmetry(t *testing.T) {
	// Glove game variant: any two players together earn 1, alone 0.
	players := []string{"p", "q"}
	v := func(s map[string]bool) float64 {
		if len(s) == 2 {
			return 1
		}
		return 0
	}
	w := ShapleyExact{}.Allocate(players, v)
	if math.Abs(w["p"]-0.5) > 1e-9 || math.Abs(w["q"]-0.5) > 1e-9 {
		t.Errorf("symmetric players must split equally: %v", w)
	}
}

func TestShapleyNullPlayer(t *testing.T) {
	players := []string{"a", "b", "null"}
	v := func(s map[string]bool) float64 {
		if s["a"] && s["b"] {
			return 100
		}
		return 0
	}
	w := ShapleyExact{}.Allocate(players, v)
	if w["null"] != 0 {
		t.Errorf("null player must get 0, got %v", w["null"])
	}
	if math.Abs(w["a"]-w["b"]) > 1e-9 {
		t.Errorf("a and b symmetric: %v", w)
	}
}

func TestMonteCarloApproximatesExact(t *testing.T) {
	players := []string{"a", "b", "c", "d"}
	v := additive(map[string]float64{"a": 5, "b": 10, "c": 20, "d": 65})
	exact := ShapleyExact{}.Allocate(players, v)
	mc := ShapleyMonteCarlo{Samples: 3000, Seed: 1}.Allocate(players, v)
	if err := ShapleyError(exact, mc); err > 0.05 {
		t.Errorf("mc error = %v, want < 0.05", err)
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	players := []string{"a", "b", "c"}
	v := additive(map[string]float64{"a": 1, "b": 2, "c": 3})
	w1 := ShapleyMonteCarlo{Samples: 100, Seed: 9}.Allocate(players, v)
	w2 := ShapleyMonteCarlo{Samples: 100, Seed: 9}.Allocate(players, v)
	for p := range w1 {
		if w1[p] != w2[p] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestLeaveOneOutAndUniform(t *testing.T) {
	players := []string{"a", "b"}
	v := additive(map[string]float64{"a": 25, "b": 75})
	loo := LeaveOneOut{}.Allocate(players, v)
	if math.Abs(loo["a"]-0.25) > 1e-9 {
		t.Errorf("loo = %v", loo)
	}
	u := Uniform{}.Allocate(players, v)
	if u["a"] != 0.5 || u["b"] != 0.5 {
		t.Errorf("uniform = %v", u)
	}
	if len(Uniform{}.Allocate(nil, v)) != 0 {
		t.Error("no players, no weights")
	}
}

func TestWeightsSumToOne(t *testing.T) {
	players := []string{"a", "b", "c"}
	v := func(s map[string]bool) float64 { return float64(len(s) * len(s)) } // superadditive
	for _, alloc := range []Allocator{ShapleyExact{}, ShapleyMonteCarlo{Samples: 500, Seed: 2}, LeaveOneOut{}, Uniform{}} {
		w := alloc.Allocate(players, v)
		var sum float64
		for _, x := range w {
			if x < 0 {
				t.Errorf("%s: negative weight %v", alloc.Name(), x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %v", alloc.Name(), sum)
		}
	}
}

func TestInCore(t *testing.T) {
	players := []string{"a", "b"}
	v := func(s map[string]bool) float64 {
		if len(s) == 2 {
			return 100
		}
		if s["a"] {
			return 80
		}
		return 0
	}
	// a must get >= 80 of the 100 for core stability.
	inCore := map[string]float64{"a": 0.9, "b": 0.1}
	ok, err := InCore(players, v, inCore, 100)
	if err != nil {
		t.Fatalf("InCore: %v", err)
	}
	if !ok {
		t.Error("0.9/0.1 split should be in core")
	}
	ok, err = InCore(players, v, notCoreSplit, 100)
	if err != nil {
		t.Fatalf("InCore: %v", err)
	}
	if ok {
		t.Error("0.5/0.5 split violates a's claim of 80")
	}
}

var notCoreSplit = map[string]float64{"a": 0.5, "b": 0.5}

func TestInCoreInfeasibleReturnsError(t *testing.T) {
	players := make([]string, 21)
	for i := range players {
		players[i] = fmt.Sprintf("p%02d", i)
	}
	v := func(s map[string]bool) float64 { return float64(len(s)) }
	if _, err := InCore(players, v, map[string]float64{}, 100); err == nil {
		t.Fatal("expected an error beyond 20 players, got nil")
	}
}

// TestRowCountValue: a mashup's row-count game, the share of its rows a
// coalition can still build, is AllOf its datasets. Every row of an
// inner-join mashup needs one row of each dataset, so the game is worth 1
// exactly when the coalition holds all of them, and Shapley splits it
// evenly.
func TestRowCountValue(t *testing.T) {
	datasets := []string{"d1", "d2", "d3"}
	v := AllOf(datasets)
	for _, c := range []struct {
		coalition map[string]bool
		want      float64
	}{
		{nil, 0},
		{map[string]bool{"d1": true}, 0},
		{map[string]bool{"d1": true, "d3": true}, 0},
		{map[string]bool{"d1": true, "d2": true, "d3": true}, 1},
		{map[string]bool{"d1": true, "d2": true, "d3": true, "other": true}, 1},
	} {
		if got := v(c.coalition); got != c.want {
			t.Errorf("v(%v) = %v, want %v", c.coalition, got, c.want)
		}
	}
	if got := AllOf(nil)(nil); got != 0 {
		t.Errorf("v(∅) of an empty mashup = %v, want 0", got)
	}
	w := ShapleyExact{}.Allocate(datasets, v)
	for _, ds := range datasets {
		if math.Abs(w[ds]-1.0/3) > 1e-9 {
			t.Errorf("complements split = %v", w)
		}
	}
}

func TestShapleyErrorMetric(t *testing.T) {
	a := map[string]float64{"x": 0.5, "y": 0.5}
	b := map[string]float64{"x": 0.4, "y": 0.6}
	if got := ShapleyError(a, b); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("error = %v", got)
	}
	if ShapleyError(a, a) != 0 {
		t.Error("self distance is 0")
	}
}

// TestPerfectSubstitutesUniformFallback pins the all-zero-split fix: when
// every player is a perfect substitute — v(S) is the same positive constant
// for every non-empty S, so each marginal v(N) - v(N\{i}) is 0 — the grand
// coalition still has value and the revenue must not silently evaporate.
// normalizeWeights falls back to a uniform split instead of all-zero weights
// (which used to leave the escrow unpaid forever).
func TestPerfectSubstitutesUniformFallback(t *testing.T) {
	players := []string{"s1", "s2", "s3"}
	v := func(s map[string]bool) float64 {
		if len(s) > 0 {
			return 120 // any single dataset already delivers everything
		}
		return 0
	}
	for _, alloc := range []Allocator{LeaveOneOut{}, ShapleyExact{}, ShapleyMonteCarlo{Samples: 100, Seed: 7}} {
		w := alloc.Allocate(players, v)
		var sum float64
		for _, p := range players {
			if w[p] < 0 {
				t.Errorf("%s: negative weight for %s: %v", alloc.Name(), p, w[p])
			}
			sum += w[p]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %v under perfect substitutes, want 1", alloc.Name(), sum)
		}
	}
	// The degenerate-but-worthless game still allocates nothing: the uniform
	// fallback must not invent a split where there is no revenue to split.
	zero := func(map[string]bool) float64 { return 0 }
	for p, w := range (LeaveOneOut{}).Allocate(players, zero) {
		if w != 0 {
			t.Errorf("worthless coalition allocated %v to %s", w, p)
		}
	}
}
