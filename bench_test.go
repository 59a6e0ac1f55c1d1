// Package repro's root benchmarks regenerate the experiments of
// internal/experiments: run
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* wraps the corresponding experiments.E* harness (the same
// code cmd/dmbench prints tables from), so `-bench` measures the cost of
// regenerating each table. The Ablation* benchmarks cover three design
// choices: hash vs nested-loop join, LSH vs exhaustive column
// matching, and Monte-Carlo Shapley sample counts.
package repro

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/index"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/profile"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/wtp"
)

func BenchmarkE1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1EndToEnd(300, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2SimDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2SimDesigns(30, 42)
	}
}

func BenchmarkE3Coalitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3Coalitions(30, 42)
	}
}

func BenchmarkE4MechanismScaling(b *testing.B) {
	// The E4 table embeds its own timing loops; the bench exercises the
	// mechanisms directly per size instead.
	for _, n := range []int{10, 100, 1000, 10000} {
		bids := make([]market.Bid, n)
		for i := range bids {
			bids[i] = market.Bid{Buyer: fmt.Sprintf("b%d", i), Offer: float64(50 + i%100)}
		}
		for _, mech := range []market.Mechanism{market.PostedPrice{P: 100}, market.SecondPrice{}, market.RSOP{Seed: 1}} {
			b.Run(fmt.Sprintf("%s/n=%d", mech.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mech.Run(bids, market.SupplyUnlimited)
				}
			})
		}
	}
}

func BenchmarkE5Shapley(b *testing.B) {
	mkGame := func(n int) ([]string, market.ValueFunc) {
		players := make([]string, n)
		for i := range players {
			players[i] = fmt.Sprintf("d%02d", i)
		}
		v := func(s map[string]bool) float64 {
			return float64(len(s)) + 0.1*float64(len(s)*len(s))
		}
		return players, v
	}
	for _, n := range []int{8, 12, 16} {
		players, v := mkGame(n)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				market.ShapleyExact{}.Allocate(players, v)
			}
		})
	}
	for _, n := range []int{8, 16, 64, 256} {
		players, v := mkGame(n)
		b.Run(fmt.Sprintf("mc200/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				market.ShapleyMonteCarlo{Samples: 200, Seed: 1}.Allocate(players, v)
			}
		})
	}
}

func BenchmarkE6MashupBuilder(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		tables := workload.LakeTables(n, 100, 42)
		profs := make([]*profile.DatasetProfile, len(tables))
		for i, r := range tables {
			profs[i] = profile.Profile(r.Name, r)
		}
		b.Run(fmt.Sprintf("profile/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				profile.Profile(tables[i%len(tables)].Name, tables[i%len(tables)])
			}
		})
		b.Run(fmt.Sprintf("index/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				index.Build(index.DefaultConfig(), profs)
			}
		})
	}
}

func BenchmarkE7PrivacyValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7PrivacyValue(42)
	}
}

func BenchmarkE8ThinMarket(b *testing.B) {
	cfg := sim.ThinConfig{
		Universe: 24, Sellers: 14, AttrsPerSeller: 8,
		Buyers: 200, AttrsPerBuyer: 6, Seed: 42,
	}
	for i := 0; i < b.N; i++ {
		sim.ThinSweep(cfg, []int{1, 2, 3, 4})
	}
}

func BenchmarkE9Arbitrage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9Arbitrage(42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Negotiation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10Negotiation(42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches ------------------------------------------------------

func mkJoinInputs(n int) (*relation.Relation, *relation.Relation) {
	l := relation.New("l", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("x", relation.KindFloat)))
	r := relation.New("r", relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col("y", relation.KindFloat)))
	for i := 0; i < n; i++ {
		l.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
		r.MustAppend(relation.Int(int64(i%n)), relation.Float(float64(-i)))
	}
	return l, r
}

func BenchmarkAblationHashJoin(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		l, r := mkJoinInputs(n)
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it, err := relation.NewHashJoin(relation.NewScan(l), relation.NewScan(r), l.Name, r.Name,
					relation.JoinPair{Left: "k", Right: "k"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := relation.Materialize(it); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 1000 {
			b.Run(fmt.Sprintf("nestedloop/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := relation.NestedLoopJoin(l, r, relation.JoinPair{Left: "k", Right: "k"}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblationLSH(b *testing.B) {
	tables := workload.LakeTables(100, 100, 42)
	profs := make([]*profile.DatasetProfile, len(tables))
	for i, r := range tables {
		profs[i] = profile.Profile(r.Name, r)
	}
	b.Run("lsh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.Build(index.DefaultConfig(), profs)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		cfg := index.DefaultConfig()
		cfg.Exhaustive = true
		for i := 0; i < b.N; i++ {
			index.Build(cfg, profs)
		}
	})
}

func BenchmarkAblationShapleySamples(b *testing.B) {
	players := make([]string, 12)
	for i := range players {
		players[i] = fmt.Sprintf("d%02d", i)
	}
	v := func(s map[string]bool) float64 { return float64(len(s)) }
	for _, samples := range []int{50, 200, 1000} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				market.ShapleyMonteCarlo{Samples: samples, Seed: 1}.Allocate(players, v)
			}
		})
	}
}

// BenchmarkRevenueSplit compares the two Shapley allocators on the same
// mixed-synergy games (additive weights plus adjacent-pair bonuses, whose
// true Shapley split is known in closed form by linearity): exact 2^n
// enumeration, which every settlement runs, against fixed-seed permutation
// sampling at 200 samples (ShapleyMonteCarlo, as in experiment E5). Each
// variant reports its L1 distance from the analytic truth alongside ns/op.
// At 25 sources exact enumeration is infeasible and only the sampled arm
// runs.
func BenchmarkRevenueSplit(b *testing.B) {
	const bonus = 4.0
	mkMixed := func(n int) ([]string, market.ValueFunc, map[string]float64) {
		players := make([]string, n)
		w := map[string]float64{}
		for i := range players {
			players[i] = fmt.Sprintf("d%02d", i)
			w[players[i]] = float64(i + 1)
		}
		v := func(s map[string]bool) float64 {
			total := 0.0
			for p := range s {
				total += w[p]
			}
			for i := 0; i+1 < n; i++ {
				if s[players[i]] && s[players[i+1]] {
					total += bonus
				}
			}
			return total
		}
		// True split by linearity: own weight plus half of each incident
		// pair bonus, normalized to fractions of the grand coalition.
		truth := map[string]float64{}
		grand := 0.0
		for i, p := range players {
			t := w[p]
			if i > 0 {
				t += bonus / 2
			}
			if i+1 < n {
				t += bonus / 2
			}
			truth[p] = t
			grand += t
		}
		for p := range truth {
			truth[p] /= grand
		}
		return players, v, truth
	}
	l1 := func(got, want map[string]float64) float64 {
		d := 0.0
		for p, tw := range want {
			d += math.Abs(got[p] - tw)
		}
		return d
	}
	for _, n := range []int{2, 4, 8, 12, 16, 20} {
		players, v, truth := mkMixed(n)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			var split map[string]float64
			for i := 0; i < b.N; i++ {
				split = exactShapleySplit(players, v)
			}
			b.ReportMetric(l1(split, truth), "l1-error")
		})
		b.Run(fmt.Sprintf("mc200/n=%d", n), func(b *testing.B) {
			alloc := market.ShapleyMonteCarlo{Samples: 200, Seed: 42}
			var split map[string]float64
			for i := 0; i < b.N; i++ {
				split = alloc.Allocate(players, v)
			}
			b.ReportMetric(l1(split, truth), "l1-error")
		})
	}
	// Beyond the exact allocator's feasible bound (2^25 coalitions): only
	// the sampled path can price this game at all.
	players, v, truth := mkMixed(25)
	b.Run("mc200/n=25", func(b *testing.B) {
		alloc := market.ShapleyMonteCarlo{Samples: 200, Seed: 42}
		var split map[string]float64
		for i := 0; i < b.N; i++ {
			split = alloc.Allocate(players, v)
		}
		b.ReportMetric(l1(split, truth), "l1-error")
	})
}

// exactShapleySplit times the pure 2^n enumeration (ShapleyExact itself
// falls back to sampling on wide games, so the bench pins the exact path by
// staying under its feasibility bound).
func exactShapleySplit(players []string, v market.ValueFunc) map[string]float64 {
	return market.ShapleyExact{}.Allocate(players, v)
}

// BenchmarkEngineThroughput measures sustained matches/sec through the
// concurrent market engine: parallel submitters push WTP-task requests into
// the intake queue (threshold-kicked epochs clear them in the background),
// then final epochs drain the tail. The custom matches/sec metric is the
// number the ROADMAP's scaling PRs track.
//
// The coverage variant is the cheap-build baseline; the transform-heavy
// variants make the Mashup Builder the dominant epoch cost (many distinct
// want groups over transform-materialized columns, with fresh shares
// continuously invalidating the candidate cache), built inside the round
// (build-ms/epoch is the builds' share of it).
func BenchmarkEngineThroughput(b *testing.B) {
	b.Run("coverage", benchCoverageThroughput)
	b.Run("transform-heavy/sync", func(b *testing.B) { benchTransformHeavy(b, false) })
	b.Run("transform-join/sync", func(b *testing.B) { benchTransformHeavy(b, true) })
	b.Run("federation/shards=1", func(b *testing.B) { benchFederationThroughput(b, 1) })
	b.Run("federation/shards=2", func(b *testing.B) { benchFederationThroughput(b, 2) })
	b.Run("federation/shards=4", func(b *testing.B) { benchFederationThroughput(b, 4) })
}

func benchCoverageThroughput(b *testing.B) {
	const buyers = 16
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		b.Fatal(err)
	}
	reg := benchRegistry()
	eng := engine.New(p, engine.Config{BatchThreshold: 256, Metrics: reg})
	defer eng.Stop()
	for i := 0; i < buyers; i++ {
		eng.SubmitRegister(fmt.Sprintf("b%02d", i), 1e9)
	}
	for s := 0; s < 4; s++ {
		id := fmt.Sprintf("s%d/d", s)
		r := relation.New(id, relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
		for i := 0; i < 50; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
		}
		eng.SubmitShare(fmt.Sprintf("s%d", s), catalog.DatasetID(id), r,
			wtp.DatasetMeta{Dataset: id, HasProvenance: true}, license.Terms{Kind: license.Open})
	}
	eng.TriggerEpoch()
	eng.Start()

	var worker atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buyer := fmt.Sprintf("b%02d", worker.Add(1)%buyers)
		for pb.Next() {
			eng.SubmitRequest(
				dod.Want{Columns: []string{"a", "b"}},
				&wtp.Function{
					Buyer: buyer,
					Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
					Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 150}},
				})
		}
	})
	// Drain: epochs until every request has cleared.
	for eng.Stats().Matched < uint64(b.N) {
		eng.TriggerEpoch()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	st := eng.Stats()
	if st.Matched != uint64(b.N) {
		b.Fatalf("matched %d of %d requests", st.Matched, b.N)
	}
	if !eng.Settlements().Cut().Conserved() {
		b.Fatal("settlement conservation violated")
	}
	b.ReportMetric(float64(st.Matched)/elapsed.Seconds(), "matches/sec")
	b.ReportMetric(float64(st.Epochs), "epochs")
	recordBenchJSON(b, reg, float64(st.Matched)/elapsed.Seconds(), st.Epochs, 0)
}

// benchTransformHeavy drives the registered-transform-heavy workload: 6
// distinct want groups, each satisfied only through columns that transform
// registration materialized, while every 64th submission shares a fresh
// dataset — bumping the catalog version and forcing all groups to rebuild.
//
// With joinWants set, each base carries a distinct w<s> column, transforms
// are partitioned across bases (t<g> lives only on base g%bases), and every
// want spans a transform column and another base's w column — so no single
// dataset covers it and every build materializes cross-dataset joins. This
// variant is what makes the Mashup Builder's join pipeline (streaming
// joins, sub-join memo) the dominant build-stage cost.
func benchTransformHeavy(b *testing.B, joinWants bool) {
	const (
		buyers = 16
		groups = 6
		bases  = 4
	)
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		b.Fatal(err)
	}
	reg := benchRegistry()
	eng := engine.New(p, engine.Config{BatchThreshold: 128, Metrics: reg})
	defer eng.Stop()
	for i := 0; i < buyers; i++ {
		if _, err := eng.SubmitRegister(fmt.Sprintf("b%02d", i), 1e9); err != nil {
			b.Fatal(err)
		}
	}
	mkRel := func(id string, rows int) *relation.Relation {
		r := relation.New(id, relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col("c", relation.KindFloat)))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5))
		}
		return r
	}
	mkBase := func(id string, s, rows int) *relation.Relation {
		r := relation.New(id, relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col("c", relation.KindFloat),
			relation.Col(fmt.Sprintf("w%d", s), relation.KindFloat)))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5),
				relation.Float(float64(i)+float64(s)))
		}
		return r
	}
	baseRows := 60
	if joinWants {
		baseRows = 400
	}
	for s := 0; s < bases; s++ {
		id := fmt.Sprintf("s%d/base", s)
		if _, err := eng.SubmitShare(fmt.Sprintf("s%d", s), catalog.DatasetID(id), mkBase(id, s, baseRows),
			wtp.DatasetMeta{Dataset: id, HasProvenance: true}, license.Terms{Kind: license.Open}); err != nil {
			b.Fatal(err)
		}
	}
	eng.TriggerEpoch()
	// Negotiation learned one transform per (dataset, group): each
	// registration materializes the derived column and re-indexes, so every
	// group's builds search a transform-widened join graph. The join variant
	// partitions the transforms instead: t<g> exists only on base g%bases,
	// forcing wants that pair t<g> with another base's w column to join.
	for s := 0; s < bases; s++ {
		for g := 0; g < groups; g++ {
			if joinWants && g%bases != s {
				continue
			}
			g := g
			p.Arbiter.DoD().RegisterTransform(
				catalog.DatasetID(fmt.Sprintf("s%d/base", s)), "c", fmt.Sprintf("t%d", g),
				&dod.Transform{
					Name: fmt.Sprintf("aff%d", g),
					Kind: relation.KindFloat,
					Fn: func(v relation.Value) relation.Value {
						if v.IsNull() || !v.IsNumeric() {
							return relation.Null()
						}
						return relation.Float(v.AsFloat()*float64(g+2) + 1)
					},
				})
		}
	}
	eng.Start()

	var submitted, shareSeq atomic.Int64
	var worker atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buyer := fmt.Sprintf("b%02d", worker.Add(1)%buyers)
		for pb.Next() {
			n := submitted.Add(1)
			if n%64 == 0 {
				// Fresh supply: joins into the graph and invalidates every
				// cached candidate set.
				id := fmt.Sprintf("x%d/d", shareSeq.Add(1))
				_, _ = eng.SubmitShare("s0", catalog.DatasetID(id), mkRel(id, 30),
					wtp.DatasetMeta{Dataset: id, HasProvenance: true}, license.Terms{Kind: license.Open})
			}
			g := int(n) % groups
			cols := []string{"a", fmt.Sprintf("t%d", g)}
			if joinWants {
				// Pair the transform column with a w column owned by a
				// different base, so only a join can cover the want.
				cols = append(cols, fmt.Sprintf("w%d", (g+1)%bases))
			}
			_, _ = eng.SubmitRequest(
				dod.Want{Columns: cols},
				&wtp.Function{
					Buyer: buyer,
					Task:  wtp.CoverageTask{Columns: cols, WantRows: 1},
					Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 150}},
				})
		}
	})
	for eng.Stats().Matched < uint64(b.N) {
		eng.TriggerEpoch()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	st := eng.Stats()
	if st.Matched != uint64(b.N) {
		b.Fatalf("matched %d of %d requests", st.Matched, b.N)
	}
	if !eng.Settlements().Cut().Conserved() {
		b.Fatal("settlement conservation violated")
	}
	b.ReportMetric(float64(st.Matched)/elapsed.Seconds(), "matches/sec")
	b.ReportMetric(float64(st.Epochs), "epochs")
	buildMS := 0.0
	if st.Epochs > 0 {
		buildMS = st.BuildMillis / float64(st.Epochs)
		b.ReportMetric(buildMS, "build-ms/epoch")
	}
	b.ReportMetric(float64(st.CacheHits), "cache-hits")
	recordBenchJSON(b, reg, float64(st.Matched)/elapsed.Seconds(), st.Epochs, buildMS)
}

// fedBenchName brute-forces a participant name hashing to the given home
// shard, so the scaling workload can pin each buyer/seller group to a shard.
func fedBenchName(prefix string, shard, shards int) string {
	for i := 0; ; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if federation.HomeOf(n, shards) == shard {
			return n
		}
	}
}

// benchFederationThroughput is the shard-scaling variant of the transform-join
// workload, driven through a federated market (internal/federation). The
// market is FIXED — four districts, each two join-half bases plus partitioned
// transforms and its own buyer group — and sharding partitions it: each
// district's sellers and buyers hash-pin to district%shards. Every want
// resolves on its home shard, so the variant isolates what federation buys:
// per-shard epochs run concurrently AND each shard's matching rounds search a
// catalog (join graph, transform set, open-request book) 1/N the size of the
// single-arbiter market. Compare shards=1/2/4 at a pinned -benchtime Nx.
func benchFederationThroughput(b *testing.B, shardsN int) {
	const (
		districts   = 4
		bases       = 3 // per district
		groups      = 6 // want groups per district
		buyersPerD  = 4
		rowsPerBase = 600
	)
	reg := benchRegistry()
	m, err := federation.Open(federation.Config{
		Shards:   shardsN,
		Engine:   engine.Config{BatchThreshold: 128},
		Platform: core.Options{Design: "posted-baseline"},
		Metrics:  reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()

	// District columns are disjoint (w<d>_<bs>, t<d>_<g>), so a district's
	// wants never span shards — but with fewer shards than districts, one
	// arbiter carries several districts' worth of catalog and open requests.
	mkBase := func(id string, d, bs int) *relation.Relation {
		r := relation.New(id, relation.NewSchema(
			relation.Col("a", relation.KindInt), relation.Col("c", relation.KindFloat),
			relation.Col(fmt.Sprintf("w%d_%d", d, bs), relation.KindFloat)))
		for i := 0; i < rowsPerBase; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5),
				relation.Float(float64(i)+float64(bs)))
		}
		return r
	}
	buyers := make([][]string, districts)
	for d := 0; d < districts; d++ {
		home := d % shardsN
		for i := 0; i < buyersPerD; i++ {
			name := fedBenchName(fmt.Sprintf("fb%d-%d-", d, i), home, shardsN)
			if _, err := m.SubmitRegister(name, 1e9); err != nil {
				b.Fatal(err)
			}
			buyers[d] = append(buyers[d], name)
		}
		for bs := 0; bs < bases; bs++ {
			seller := fedBenchName(fmt.Sprintf("fs%d-%d-", d, bs), home, shardsN)
			id := seller + "/base"
			if _, err := m.SubmitShare(seller, catalog.DatasetID(id), mkBase(id, d, bs),
				wtp.DatasetMeta{Dataset: id, HasProvenance: true}, license.Terms{Kind: license.Open}); err != nil {
				b.Fatal(err)
			}
		}
	}
	m.TriggerEpoch()
	// Transforms are partitioned exactly like transform-join: t<d>_<g> lives
	// only on district d's base g%bases, so a want pairing it with the other
	// base's w column must join across datasets.
	for d := 0; d < districts; d++ {
		sh := m.Shards()[d%shardsN]
		for bs := 0; bs < bases; bs++ {
			seller := fedBenchName(fmt.Sprintf("fs%d-%d-", d, bs), d%shardsN, shardsN)
			for g := 0; g < groups; g++ {
				if g%bases != bs {
					continue
				}
				g := g
				sh.Platform.Arbiter.DoD().RegisterTransform(
					catalog.DatasetID(seller+"/base"), "c", fmt.Sprintf("t%d_%d", d, g),
					&dod.Transform{
						Name: fmt.Sprintf("aff%d_%d", d, g),
						Kind: relation.KindFloat,
						Fn: func(v relation.Value) relation.Value {
							if v.IsNull() || !v.IsNumeric() {
								return relation.Null()
							}
							return relation.Float(v.AsFloat()*float64(g+2) + 1)
						},
					})
			}
		}
	}
	m.Start()

	var worker atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1)) - 1
		d := w % districts
		buyer := buyers[d][(w/districts)%buyersPerD]
		var n int64
		for pb.Next() {
			n++
			g := int(n) % groups
			cols := []string{"a", fmt.Sprintf("t%d_%d", d, g), fmt.Sprintf("w%d_%d", d, (g+1)%bases)}
			_, _ = m.SubmitRequest(
				dod.Want{Columns: cols},
				&wtp.Function{
					Buyer: buyer,
					Task:  wtp.CoverageTask{Columns: cols, WantRows: 1},
					Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 150}},
				})
		}
	})
	for m.Stats().Matched < uint64(b.N) {
		m.TriggerEpoch()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	st := m.Stats()
	if st.Matched != uint64(b.N) {
		b.Fatalf("matched %d of %d requests", st.Matched, b.N)
	}
	for _, sh := range m.Shards() {
		if !sh.Engine.Settlements().Cut().Conserved() {
			b.Fatalf("shard %d settlement conservation violated", sh.Index)
		}
	}
	b.ReportMetric(float64(st.Matched)/elapsed.Seconds(), "matches/sec")
	b.ReportMetric(float64(st.Epochs), "epochs")
	buildMS := 0.0
	if st.Epochs > 0 {
		buildMS = st.BuildMillis / float64(st.Epochs)
		b.ReportMetric(buildMS, "build-ms/epoch")
	}
	recordBenchJSON(b, reg, float64(st.Matched)/elapsed.Seconds(), st.Epochs, buildMS)
}

func BenchmarkE11ExPostAudits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11ExPostAudits(30, 42)
	}
}

func BenchmarkE12DynamicArrival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12DynamicArrival(42)
	}
}

// BenchmarkMatchPolicy measures the matching-policy selection cost per
// epoch: ranking 10k open-request candidates under each policy and
// splitting at a 64-request round cap — the work selectRound adds to every
// epoch when a policy or cap is configured.
func BenchmarkMatchPolicy(b *testing.B) {
	cands := make([]engine.RequestCandidate, 10_000)
	for i := range cands {
		cands[i] = engine.RequestCandidate{
			RequestID:   fmt.Sprintf("req-%05d", i),
			Participant: fmt.Sprintf("b%02d", i%17),
			Priority:    i % 3,
			FiledEpoch:  uint64(i % 97),
			FiledSeq:    i + 1,
			Age:         uint64(i % 11),
		}
	}
	for _, pol := range []engine.MatchPolicy{
		engine.PolicyFIFO{}, engine.PolicyPriority{}, engine.PolicyAging{AgeBoost: 1},
	} {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				selected, deferred := engine.SelectCandidates(pol, cands, 64)
				if len(selected) != 64 || len(deferred) != len(cands)-64 {
					b.Fatalf("bad split: %d/%d", len(selected), len(deferred))
				}
			}
		})
	}
}

// BenchmarkWALAppend measures the durable event log's per-record append cost
// under each fsync policy (internal/wal). `always` pays one fsync per event,
// `epoch` amortizes it over the epoch batch (the sync point here is the
// epoch-end record every 64 events), `off` leaves flushing to the OS.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncEpoch, wal.SyncOff} {
		b.Run(string(policy), func(b *testing.B) {
			w, err := wal.Open(wal.Options{Dir: b.TempDir(), Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kind := engine.EventRequestFiled
				if (i+1)%64 == 0 {
					kind = engine.EventEpochEnd
				}
				if err := w.Persist(engine.Event{
					Seq: i + 1, Epoch: uint64(i / 64), Kind: kind,
					Ticket: "sub-000042", Participant: "b1", RequestID: "req-0042",
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
