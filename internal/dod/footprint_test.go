package dod

// This file is the differential oracle for footprint-aware invalidation: over
// seeded random catalogs and mutation scripts, after every mutation
//
//   - the cached sets that went stale are exactly the ones the footprint
//     predicate names (providersFor(touched, want) non-empty before or after),
//   - and BuildCached — retained or rebuilt — is deep-equal to a fresh Build:
//     datasets, plan strings, rows, row order, lineage and the error text.
//
// The second property is what makes retention optimisation-only: a crash
// reboots with a cold cache and must settle byte-identically.
//
// The fixed seed matrix keeps CI deterministic; DOD_ORACLE_EXTRA_SEEDS=N adds
// N time-derived seeds as a randomized budget (every seed is in its subtest's
// name and every failure message).

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/relation"
)

// oracleWants covers every provider mode plus a hopeless want (failed sets
// follow the same rule) and a non-default search knob.
func oracleWants() []Want {
	return []Want{
		{Columns: []string{"k", "price"}},
		{Columns: []string{"price", "temp"}},
		{Columns: []string{"temp", "qty", "city_name"}},
		{Columns: []string{"amount"}, Aliases: map[string][]string{"amount": {"cost"}}},
		{Columns: []string{"derived", "price"}},
		{Columns: []string{"never", "supplied"}},
		{Columns: []string{"qty", "k"}, MaxDatasets: 2},
	}
}

// oracleWorld is a catalog + index + engine mutated the way the arbiter does
// it: every index write goes through MutateCatalog naming its dataset.
type oracleWorld struct {
	t   *testing.T
	rng *rand.Rand
	cat *catalog.Catalog
	ix  *index.Index
	eng *Engine
	ids []string // shared datasets, in share order
	n   int      // dataset counter (names and value ranges)
}

func newOracleWorld(t *testing.T, seed int64) *oracleWorld {
	w := &oracleWorld{t: t, rng: rand.New(rand.NewSource(seed)), cat: catalog.New(),
		ix: index.Build(index.DefaultConfig(), nil)}
	w.eng = New(w.cat, discovery.New(w.ix))
	return w
}

// rel builds a relation from column names. "k" is the shared int join key
// 0..rows-1 (rows drawn from two sizes, so most k↔k edges tie at Jaccard 1.0),
// city-like columns are strings shared across datasets (a second join edge),
// everything else is a float in a per-dataset range (no accidental edges).
func (w *oracleWorld) rel(id string, cols ...string) *relation.Relation {
	w.n++
	rows := 20 + 10*w.rng.Intn(2)
	schema := make([]relation.Column, len(cols))
	for i, c := range cols {
		switch c {
		case "k":
			schema[i] = relation.Col(c, relation.KindInt)
		case "city_name", "name_city":
			schema[i] = relation.Col(c, relation.KindString)
		default:
			schema[i] = relation.Col(c, relation.KindFloat)
		}
	}
	r := relation.New(id, relation.NewSchema(schema...))
	for i := 0; i < rows; i++ {
		row := make([]relation.Value, len(cols))
		for j, c := range schema {
			switch c.Kind {
			case relation.KindInt:
				row[j] = relation.Int(int64(i))
			case relation.KindString:
				row[j] = relation.String_(fmt.Sprintf("c%d", i))
			default:
				row[j] = relation.Float(float64(w.n*1000+j*100+i) + 0.5)
			}
		}
		r.MustAppend(row...)
	}
	return r
}

func (w *oracleWorld) share(cols ...string) {
	id := fmt.Sprintf("d%02d", len(w.ids))
	rel := w.rel(id, cols...)
	if err := w.cat.Register(catalog.DatasetID(id), "seller", rel); err != nil {
		w.t.Fatal(err)
	}
	w.ids = append(w.ids, id)
	w.eng.MutateCatalog(catalog.DatasetID(id), func() bool {
		w.ix.Add(profile.Profile(id, rel))
		return true
	})
}

func (w *oracleWorld) update(id string, cols ...string) {
	rel := w.rel(id, cols...)
	w.eng.MutateCatalog(catalog.DatasetID(id), func() bool {
		if _, err := w.cat.Update(catalog.DatasetID(id), rel, "oracle"); err != nil {
			return false
		}
		w.ix.Add(profile.Profile(id, rel))
		return true
	})
}

func (w *oracleWorld) pick(xs ...string) string { return xs[w.rng.Intn(len(xs))] }

func (w *oracleWorld) colsOf(id string) []string {
	var cols []string
	for _, cp := range w.ix.Profile(id).Columns {
		cols = append(cols, cp.Column)
	}
	return cols
}

var oracleDouble = &Transform{Name: "double", Kind: relation.KindFloat,
	Fn: func(v relation.Value) relation.Value { return relation.Float(v.AsFloat() * 2) }}

// mutation is one scripted step: the dataset it touches and how.
type mutation struct {
	name, ds string
	run      func()
}

// next draws the next mutation of the script.
func (w *oracleWorld) next() mutation {
	nextID := fmt.Sprintf("d%02d", len(w.ids))
	existing := w.ids[w.rng.Intn(len(w.ids))]
	sharing := func(name string, cols ...string) mutation {
		return mutation{name, nextID, func() { w.share(cols...) }}
	}
	switch w.rng.Intn(13) {
	case 0: // disjoint names and values: no provider, no edge
		u := fmt.Sprintf("u%d", w.n)
		return sharing("share unrelated", u+"a", u+"b")
	case 1: // joins every keyed dataset but provides nothing beyond k
		return sharing("share bridge", "k", fmt.Sprintf("z%d", w.n))
	case 2:
		return sharing("share provider", "k", w.pick("price", "temp", "qty", "city_name", "never"))
	case 3: // tokenSim >= 0.5 with a wanted name
		return sharing("share fuzzy match", "k", w.pick("temp_f", "name_city", "price_usd", "never_ever"))
	case 4:
		return sharing("share alias target", "k", "cost")
	case 5:
		return sharing("share transform source", "k", "legacy")
	case 6:
		return mutation{"update rows", existing, func() { w.update(existing, w.colsOf(existing)...) }}
	case 7:
		gained := w.colsOf(existing)
		for _, c := range []string{w.pick("qty", "temp", "supplied"), "price"} {
			if !containsName(gained, c) { // a duplicate column would be rejected
				gained = append(gained, c)
				break
			}
		}
		return mutation{"update gains a column", existing, func() { w.update(existing, gained...) }}
	case 8:
		cols := w.colsOf(existing)
		if len(cols) > 1 {
			cols = cols[:len(cols)-1]
		}
		return mutation{"update loses a column", existing, func() { w.update(existing, cols...) }}
	case 9:
		cols := w.colsOf(existing)
		return mutation{"transform onto a wanted target", existing, func() {
			w.eng.RegisterTransform(catalog.DatasetID(existing), cols[len(cols)-1], "derived", oracleDouble)
		}}
	case 10:
		return mutation{"transform onto an unwanted target", existing, func() {
			w.eng.RegisterTransform(catalog.DatasetID(existing), w.colsOf(existing)[0], "unwanted_tgt", oracleDouble)
		}}
	case 11:
		return mutation{"transform on an unknown dataset", "ghost/d", func() {
			w.eng.RegisterTransform("ghost/d", "legacy", "derived", oracleDouble)
		}}
	default:
		return mutation{"rejected update", "ghost/d", func() { w.update("ghost/d", "k", "price") }}
	}
}

// checkFresh asserts that BuildCached equals a fresh Build for every want.
func (w *oracleWorld) checkFresh(where string, wants []Want) []*CandidateSet {
	w.t.Helper()
	sets := make([]*CandidateSet, len(wants))
	for i, want := range wants {
		cs := w.eng.BuildCached(context.Background(), want)
		sets[i] = cs
		fresh, err := w.eng.Build(want)
		freshErr := ""
		if err != nil {
			freshErr = err.Error()
		}
		if cs.Err != freshErr {
			w.t.Fatalf("%s: want %v: cached error %q, fresh build error %q", where, want.Columns, cs.Err, freshErr)
		}
		if !reflect.DeepEqual(cs.Candidates, fresh) {
			w.t.Fatalf("%s: want %v: cached candidates diverge from a fresh build\ncached: %s\nfresh:  %s",
				where, want.Columns, describe(cs.Candidates), describe(fresh))
		}
	}
	return sets
}

func describe(cands []Candidate) string {
	var out []string
	for _, c := range cands {
		out = append(out, fmt.Sprintf("%v %v (%d rows)", c.Datasets, c.Plan, c.Rel().NumRows()))
	}
	return fmt.Sprint(out)
}

func oracleSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if v := os.Getenv("DOD_ORACLE_EXTRA_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad DOD_ORACLE_EXTRA_SEEDS %q: %v", v, err)
		}
		base := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+int64(i)*7919)
		}
	}
	return seeds
}

func TestFootprintInvalidationOracle(t *testing.T) {
	var retained, staled uint64
	for _, seed := range oracleSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newOracleWorld(t, seed)
			wants := oracleWants()
			w.checkFresh(fmt.Sprintf("seed %d empty catalog", seed), wants)
			// Enough keyed datasets that k↔k edges tie more than 12 deep — the
			// depth at which an unstable sort starts reordering them.
			for i := 0; i < 14; i++ {
				w.share("k", w.pick("price", "temp", "qty", "city_name", "legacy", "cost", "z"))
			}
			for step := 0; step < 24; step++ {
				m := w.next()
				where := fmt.Sprintf("seed %d step %d (%s on %s)", seed, step, m.name, m.ds)
				before := w.checkFresh(where+" warm-up", wants)
				affected := make([]bool, len(wants))
				for i, want := range wants {
					affected[i] = len(w.eng.providersFor(m.ds, want)) > 0
				}
				ver, builds := w.eng.CatalogVersion(), w.eng.CacheStats().Builds
				m.run()
				applied := w.eng.CatalogVersion() != ver
				if applied == (m.name == "rejected update") {
					t.Fatalf("%s: applied = %v", where, applied)
				}
				wantBuilds := builds
				for i, want := range wants {
					affected[i] = applied && (affected[i] || len(w.eng.providersFor(m.ds, want)) > 0)
					if stale := !w.eng.Valid(before[i], want); stale != affected[i] {
						t.Fatalf("%s: want %v: stale = %v, footprint predicate says %v", where, want.Columns, stale, affected[i])
					}
					if affected[i] {
						wantBuilds++
						staled++
					} else if applied {
						retained++
					}
				}
				after := w.checkFresh(where, wants)
				for i := range wants {
					if !affected[i] && after[i] != before[i] {
						t.Fatalf("%s: want %v: unaffected set was rebuilt", where, wants[i].Columns)
					}
				}
				if got := w.eng.CacheStats().Builds; got != wantBuilds {
					t.Fatalf("%s: %d cached builds ran, want %d (one per affected want)", where, got-builds, wantBuilds-builds)
				}
			}
		})
	}
	if retained == 0 || staled == 0 {
		t.Fatalf("vacuous run: %d sets retained, %d staled", retained, staled)
	}
	t.Logf("%d sets retained across bumps, %d staled", retained, staled)
}

// TestConcurrentBuildsAndMutations is the -race exercise for the build/mutate
// seam and the re-stamp: builders hammer BuildCached while an oracle script of
// shares, updates and transform registrations interleaves. Afterwards every
// want must still equal a fresh build, and sets must in fact have been
// retained.
func TestConcurrentBuildsAndMutations(t *testing.T) {
	w := newOracleWorld(t, 99)
	wants := oracleWants()
	for i := 0; i < 8; i++ {
		w.share("k", w.pick("price", "temp", "qty", "city_name", "legacy", "cost"))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				want := wants[(b+i)%len(wants)]
				cs := w.eng.BuildCached(context.Background(), want)
				w.eng.Valid(cs, want) // the lock-free stamp read pricing does
				if cs.Err == "" && len(cs.Candidates) == 0 {
					t.Error("successful build with no candidates")
					return
				}
			}
		}(b)
	}
	for step := 0; step < 40; step++ {
		// Every want holds a valid set when the version bumps, whatever the
		// builders happened to be doing: retention across the bump is then a
		// function of the seeded script alone, not of goroutine scheduling.
		for _, want := range wants {
			w.eng.BuildCached(context.Background(), want)
		}
		w.next().run()
	}
	close(stop)
	wg.Wait()
	w.checkFresh("after the concurrent script", wants)
	if st := w.eng.CacheStats(); st.Retained == 0 {
		t.Errorf("no set was retained across %d version bumps: %+v", st.Version, st)
	}
}
