// Package workload generates the synthetic datasets and buyer populations
// used by the examples, tests and benchmark harness. The paper's evaluation
// was run on the authors' (unavailable) enterprise data; these deterministic
// generators substitute workloads with the same structural properties:
// star-schema silos with shared keys, transformed attributes f(d),
// near-duplicate columns b/b′, multi-source signals for fusion, and feature
// tables with PII for the privacy experiments.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// PaperExample materializes the §1 worked example:
//
//	s1 = ⟨a, b, c⟩
//	s2 = ⟨a, b′, f(d)⟩   with f = Celsius→Fahrenheit
//	s3 = ⟨a, e⟩           the dataset opportunistic Seller 3 could fetch
//
// plus the ground-truth d column (for checking inverse transforms) and a
// label column derived from (b, d, e) so a classifier task has signal.
type PaperExample struct {
	S1, S2, S3 *relation.Relation
	// Truth holds ⟨a, d, label⟩: the data the buyer's task actually needs.
	Truth *relation.Relation
}

// NewPaperExample generates the scenario with n rows.
func NewPaperExample(n int, seed int64) *PaperExample {
	rng := rand.New(rand.NewSource(seed))
	s1 := relation.New("s1", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b", relation.KindFloat),
		relation.Col("c", relation.KindString),
	))
	s2 := relation.New("s2", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("b_prime", relation.KindFloat),
		relation.Col("f_of_temp", relation.KindFloat),
	))
	s3 := relation.New("s3", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("e", relation.KindFloat),
	))
	truth := relation.New("truth", relation.NewSchema(
		relation.Col("a", relation.KindInt),
		relation.Col("d", relation.KindFloat),
		relation.Col("label", relation.KindBool),
	))
	for i := 0; i < n; i++ {
		b := rng.NormFloat64() * 10
		d := rng.Float64() * 35 // celsius
		e := rng.NormFloat64() * 5
		label := b+d/4+e > 8
		s1.MustAppend(relation.Int(int64(i)), relation.Float(b), relation.String_(fmt.Sprintf("cat%d", i%7)))
		// b' is b with small conflicting noise on ~20% of rows.
		bp := b
		if rng.Float64() < 0.2 {
			bp += rng.NormFloat64()
		}
		s2.MustAppend(relation.Int(int64(i)), relation.Float(bp), relation.Float(d*1.8+32))
		s3.MustAppend(relation.Int(int64(i)), relation.Float(e))
		truth.MustAppend(relation.Int(int64(i)), relation.Float(d), relation.Bool(label))
	}
	return &PaperExample{S1: s1, S2: s2, S3: s3, Truth: truth}
}

// Silo is one department's slice of an internal-market enterprise.
type Silo struct {
	Owner    string
	Datasets []*relation.Relation
}

// EnterpriseSilos generates `silos` departments, each owning `perSilo`
// tables that share entity keys with a global customer dimension — the
// "bring down data silos" internal-market scenario (paper §3.3). Every
// dataset has a key column "entity_id" drawn from a shared universe plus
// silo-specific measure columns.
func EnterpriseSilos(silos, perSilo, rows int, seed int64) []Silo {
	rng := rand.New(rand.NewSource(seed))
	universe := rows * 2
	out := make([]Silo, silos)
	for s := 0; s < silos; s++ {
		owner := fmt.Sprintf("dept%d", s)
		out[s].Owner = owner
		for t := 0; t < perSilo; t++ {
			name := fmt.Sprintf("%s_table%d", owner, t)
			r := relation.New(name, relation.NewSchema(
				relation.Col("entity_id", relation.KindInt),
				relation.Col(fmt.Sprintf("metric_%d_%d", s, t), relation.KindFloat),
				relation.Col(fmt.Sprintf("flag_%d_%d", s, t), relation.KindBool),
			))
			seen := map[int]bool{}
			for i := 0; i < rows; i++ {
				id := rng.Intn(universe)
				for seen[id] {
					id = rng.Intn(universe)
				}
				seen[id] = true
				r.MustAppend(relation.Int(int64(id)),
					relation.Float(rng.NormFloat64()*100),
					relation.Bool(rng.Float64() < 0.5))
			}
			out[s].Datasets = append(out[s].Datasets, r)
		}
	}
	return out
}

// WeatherSources generates `sources` signals over `days` days with one
// systematically unreliable source — the fusion/truth-discovery workload.
// Returns the sources, the ground truth per day, and the name of the bad
// source.
func WeatherSources(sources, days int, seed int64) (rels []*relation.Relation, truth []float64, bad string) {
	rng := rand.New(rand.NewSource(seed))
	truth = make([]float64, days)
	for d := range truth {
		truth[d] = 10 + 10*rng.Float64()
	}
	badIdx := sources - 1
	for s := 0; s < sources; s++ {
		name := fmt.Sprintf("wsrc%d", s)
		if s == badIdx {
			bad = name
		}
		r := relation.New(name, relation.NewSchema(
			relation.Col("day", relation.KindInt),
			relation.Col("temp", relation.KindFloat),
		))
		for d := 0; d < days; d++ {
			v := truth[d]
			if s == badIdx && rng.Float64() < 0.7 {
				v += 4 + rng.Float64()*4
			} else if rng.Float64() < 0.05 {
				v += rng.NormFloat64()
			}
			r.MustAppend(relation.Int(int64(d)), relation.Float(v))
		}
		rels = append(rels, r)
	}
	return rels, truth, bad
}

// PIITable generates an HR-style table with identifying and sensitive
// columns for the privacy experiments (E7).
func PIITable(rows int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("hr", relation.NewSchema(
		relation.Col("name", relation.KindString),
		relation.Col("age", relation.KindFloat),
		relation.Col("zip", relation.KindString),
		relation.Col("salary", relation.KindFloat),
		relation.Col("quit", relation.KindBool),
	))
	for i := 0; i < rows; i++ {
		age := 22 + rng.Float64()*40
		residual := rng.NormFloat64() * 8000
		salary := 40000 + age*1000 + residual
		// The label depends on the part of salary that age does not explain:
		// underpaid-for-their-age employees quit. This keeps the salary
		// column strictly necessary for the task — privacy noise on salary
		// (experiment E7) therefore degrades accuracy toward chance.
		quit := residual < 0
		if rng.Float64() < 0.05 {
			quit = !quit
		}
		r.MustAppend(
			relation.String_(fmt.Sprintf("person%04d", i)),
			relation.Float(age),
			relation.String_(fmt.Sprintf("606%02d", rng.Intn(30))),
			relation.Float(salary),
			relation.Bool(quit),
		)
	}
	return r
}

// LakeTables generates n heterogeneous tables for discovery/index scaling
// benchmarks (E6): clusters of tables share join keys; the rest are noise.
func LakeTables(n, rowsEach int, seed int64) []*relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*relation.Relation, n)
	clusterKeys := 1 + n/10
	for i := 0; i < n; i++ {
		cluster := i % clusterKeys
		r := relation.New(fmt.Sprintf("lake%04d", i), relation.NewSchema(
			relation.Col(fmt.Sprintf("key_c%d", cluster), relation.KindInt),
			relation.Col(fmt.Sprintf("val_%d_a", i), relation.KindFloat),
			relation.Col(fmt.Sprintf("val_%d_b", i), relation.KindString),
		))
		for j := 0; j < rowsEach; j++ {
			r.MustAppend(
				relation.Int(int64(cluster*100000+rng.Intn(rowsEach*2))),
				relation.Float(rng.NormFloat64()),
				relation.String_(fmt.Sprintf("tok%d_%d", cluster, rng.Intn(50))),
			)
		}
		out[i] = r
	}
	return out
}
