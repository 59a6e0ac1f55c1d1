// Package dod implements the Dataset-on-Demand engine of the Mashup Builder
// (paper §5.3): it "takes WTP-functions as input and produces mashups that
// fulfill the WTP-function requests as output", using the indexes built by
// the index builder, query-by-example target schemas, and inferred
// transformation functions.
//
// Given a Want (the buyer's target schema), the engine:
//
//  1. scores every catalogued dataset by which wanted columns it can provide
//     — directly, via an alias, via a registered/inferred transform, or via
//     fuzzy name match;
//  2. runs a beam search over the join graph to assemble sets of datasets
//     whose combination covers more of the target schema;
//  3. materializes each candidate with relation's operators: joins along
//     the chosen edges, applies transforms (the inverse-f′ of the paper's
//     f(d) example), renames to the buyer's vocabulary, and projects onto
//     the target schema.
package dod

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/relation"
)

// Want is the buyer's query-by-example target schema (paper §3.2.2.1).
type Want struct {
	// Columns are the attribute names of the desired mashup.
	Columns []string
	// Aliases lists acceptable source column names per wanted column.
	Aliases map[string][]string
	// MaxDatasets caps the number of datasets combined in one mashup.
	MaxDatasets int
	// MaxCandidates caps the number of mashups returned.
	MaxCandidates int
	// MinJoinScore is the minimum containment score for following an edge.
	MinJoinScore float64
	// MinRows drops candidates with fewer materialized rows.
	MinRows int
}

func (w *Want) withDefaults() Want {
	out := *w
	if out.MaxDatasets <= 0 {
		out.MaxDatasets = 3
	}
	if out.MaxCandidates <= 0 {
		out.MaxCandidates = 5
	}
	if out.MinJoinScore <= 0 {
		out.MinJoinScore = 0.25
	}
	return out
}

// Candidate is one materialized mashup: a relation plus the datasets it
// was built from.
type Candidate struct {
	rel      *relation.Relation
	Coverage float64 // fraction of wanted columns present
	// Quality weighs how each wanted column was satisfied: exact name
	// matches score 1, aliases 0.95, transforms 0.9 and fuzzy name matches
	// 0.6 — so a mashup supplying the true attribute b outranks one
	// supplying the similar-but-conflicting b′ (paper §1).
	Quality float64
	// Datasets are the contributing datasets, sorted. Every plan is a chain
	// of inner joins over distinct datasets (a beam state never repeats
	// one), followed by maps, renames and a projection, so every row of the
	// mashup comes from exactly one row of each of these datasets: none of
	// its rows survives without all of them. Revenue sharing values
	// coalitions on that fact (market.AllOf).
	Datasets []string
	Plan     []string // human-readable build steps (transparency, §4.4)
}

// Rel is the materialized relation.
func (c *Candidate) Rel() *relation.Relation { return c.rel }

// providerMode ranks how a dataset column satisfies a wanted column.
type providerMode int

const (
	provideDirect providerMode = iota
	provideAlias
	provideTransform
	provideFuzzy
)

type provider struct {
	wanted    string
	sourceCol string
	mode      providerMode
	transform *Transform
}

func (m providerMode) weight() float64 {
	switch m {
	case provideDirect:
		return 1
	case provideAlias:
		return 0.95
	case provideTransform:
		return 0.9
	default:
		return 0.6
	}
}

type transKey struct {
	Dataset, Column, Target string
}

// Engine is the DoD engine. Builds may run on many goroutines at once (a
// deadline-abandoned search keeps running beside later ones): mu serializes
// catalog/index/transform mutations against in-flight builds, and the
// versioned candidate cache (cache.go) memoizes build outcomes per want-key.
type Engine struct {
	cat  *catalog.Catalog
	disc *discovery.Engine

	// mu is the build/mutate seam: builds hold it shared for their whole
	// search+materialize and cache insert, mutations (MutateCatalog, and
	// RegisterTransform through it) hold it exclusively, bump version and
	// re-stamp the cached sets the mutation cannot have changed.
	mu         sync.RWMutex
	transforms map[transKey]*Transform
	version    atomic.Uint64

	cacheMu     sync.Mutex
	cache       map[string]*CandidateSet
	inflight    map[string]*inflightBuild
	cacheMax    int // MaxEntries bound; 0 = unlimited (guarded by cacheMu)
	cacheHits   atomic.Uint64
	cacheStale  atomic.Uint64
	retained    atomic.Uint64 // sets carried across a version bump
	cacheMisses atomic.Uint64
	builds      atomic.Uint64
	buildNanos  atomic.Int64
	evictions   atomic.Uint64
	panics      atomic.Uint64
	useSeq      atomic.Uint64 // logical clock for LRU recency

	// deadlineNanos is the per-build deadline applied inside BuildCached
	// (0 = none). deadlineHits/cancelled count build requests abandoned to
	// a deadline or an external cancellation.
	deadlineNanos atomic.Int64
	deadlineHits  atomic.Uint64
	cancelled     atomic.Uint64

	// subjoinHits counts join prefixes reused from a per-build sub-join memo
	// instead of being recomputed (dod_subjoin_memo_hits_total).
	subjoinHits atomic.Uint64

	// buildHook, when set, observes each completed build's wall-clock
	// seconds (telemetry only — see obs).
	buildHook atomic.Pointer[func(float64)]
}

// New creates an engine over a catalog and discovery engine.
func New(cat *catalog.Catalog, disc *discovery.Engine) *Engine {
	return &Engine{cat: cat, disc: disc, transforms: map[transKey]*Transform{},
		cache: map[string]*CandidateSet{}, inflight: map[string]*inflightBuild{}}
}

// RegisterTransform records that applying t to (dataset, column) yields the
// target attribute. Negotiation rounds (paper §4.1) feed this: a seller who
// explains how to obtain d from f(d) raises their dataset's usefulness.
//
// Beyond remembering the transform, the engine *materializes* the derived
// attribute as a new catalog version of the dataset and re-indexes it. This
// matters when the transformed values are what make a join possible at all
// (e.g. a legacy code mapped into the vocabulary another dataset joins on):
// content-based join discovery can only find edges on the materialized
// values.
//
// Cached mashups that could use the dataset predate the transform and go
// stale; like any other mutation of one dataset, it leaves the rest valid.
func (e *Engine) RegisterTransform(dataset catalog.DatasetID, column, target string, t *Transform) {
	e.MutateCatalog(dataset, func() bool {
		e.transforms[transKey{string(dataset), column, target}] = t
		rel, err := e.cat.Get(dataset)
		if err != nil {
			return true // unknown dataset; transform-only registration stands
		}
		if rel.Schema.Has(target) || !rel.Schema.Has(column) {
			return true
		}
		ci := rel.Schema.IndexOf(column)
		derived, _ := relation.Materialize(relation.NewAddColumn(relation.NewScan(rel), relation.Column{Name: target, Kind: t.Kind},
			func(row []relation.Value, _ relation.Schema) relation.Value {
				return t.Fn(row[ci])
			}))
		derived.Name = rel.Name
		if _, err := e.cat.Update(dataset, derived, "materialized transform "+t.Name); err == nil {
			e.disc.Index().Add(profile.Profile(string(dataset), derived))
		}
		return true
	})
}

// providersFor lists how dataset ds can supply each wanted column.
func (e *Engine) providersFor(ds string, want Want) map[string]provider {
	dp := e.disc.Profile(ds)
	if dp == nil {
		return nil
	}
	out := map[string]provider{}
	consider := func(p provider) {
		if cur, ok := out[p.wanted]; !ok || p.mode < cur.mode {
			out[p.wanted] = p
		}
	}
	for _, w := range want.Columns {
		for i := range dp.Columns {
			col := dp.Columns[i].Column
			switch {
			case col == w:
				consider(provider{wanted: w, sourceCol: col, mode: provideDirect})
			case containsName(want.Aliases[w], col):
				consider(provider{wanted: w, sourceCol: col, mode: provideAlias})
			case tokenSim(col, w) >= 0.5:
				consider(provider{wanted: w, sourceCol: col, mode: provideFuzzy})
			}
			if t, ok := e.transforms[transKey{ds, col, w}]; ok {
				consider(provider{wanted: w, sourceCol: col, mode: provideTransform, transform: t})
			}
		}
	}
	return out
}

func containsName(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// tokenSim is the Jaccard similarity of name token sets.
func tokenSim(a, b string) float64 {
	ta, tb := index.Tokenize(a), index.Tokenize(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := map[string]bool{}
	for _, t := range ta {
		set[t] = true
	}
	inter := 0
	seen := map[string]bool{}
	for _, t := range tb {
		if set[t] && !seen[t] {
			inter++
			seen[t] = true
		}
	}
	union := len(set) + len(tb) - inter
	// len(tb) may double-count duplicates; normalize via sets.
	setB := map[string]bool{}
	for _, t := range tb {
		setB[t] = true
	}
	union = len(set) + len(setB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// joinStep records one edge followed during assembly.
type joinStep struct {
	left  index.ColRef // column already in the state
	right index.ColRef // column of the newly added dataset
	score float64
}

// state is a beam-search node.
type state struct {
	datasets []string
	joins    []joinStep
	covered  map[string]provider // wanted column -> chosen provider
}

func (s *state) has(ds string) bool {
	for _, d := range s.datasets {
		if d == ds {
			return true
		}
	}
	return false
}

func (s *state) quality(want Want) float64 {
	if len(want.Columns) == 0 {
		return 1
	}
	var q float64
	for _, pr := range s.covered {
		q += pr.mode.weight()
	}
	return q / float64(len(want.Columns))
}

func (s *state) clone() *state {
	ns := &state{
		datasets: append([]string(nil), s.datasets...),
		joins:    append([]joinStep(nil), s.joins...),
		covered:  make(map[string]provider, len(s.covered)),
	}
	for k, v := range s.covered {
		ns.covered[k] = v
	}
	return ns
}

func (s *state) key() string {
	ds := append([]string(nil), s.datasets...)
	sort.Strings(ds)
	return strings.Join(ds, "|")
}

// Build runs discovery + integration and returns ranked candidate mashups.
// It always searches afresh; BuildCached (cache.go) is the memoizing variant
// the arbiter's pipelined rounds use.
func (e *Engine) Build(wantIn Want) ([]Candidate, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildLocked(context.Background(), wantIn)
}

// buildLocked is the beam search + materialization. Caller holds e.mu (shared
// is enough: the search only reads catalog, index and transforms). The search
// checks ctx at node-expansion granularity and between joins, so a cancelled
// or deadline-exceeded build abandons promptly instead of finishing a search
// nobody will price.
func (e *Engine) buildLocked(ctx context.Context, wantIn Want) ([]Candidate, error) {
	want := wantIn.withDefaults()
	if len(want.Columns) == 0 {
		return nil, fmt.Errorf("dod: want has no columns")
	}

	// Seed states: every dataset that provides at least one wanted column.
	var beam []*state
	providers := map[string]map[string]provider{}
	for _, ds := range e.disc.Index().Datasets() {
		p := e.providersFor(ds, want)
		providers[ds] = p
		if len(p) == 0 {
			continue
		}
		st := &state{datasets: []string{ds}, covered: map[string]provider{}}
		for w, pr := range p {
			st.covered[w] = pr
		}
		beam = append(beam, st)
	}
	if len(beam) == 0 {
		return nil, fmt.Errorf("dod: no dataset provides any of %v", want.Columns)
	}
	sortStates(beam, want)
	const beamWidth = 8
	if len(beam) > beamWidth {
		beam = beam[:beamWidth]
	}

	finals := map[string]*state{}
	for _, st := range beam {
		finals[st.key()] = st
	}
	for depth := 1; depth < want.MaxDatasets; depth++ {
		var next []*state
		for _, st := range beam {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("dod: build abandoned at depth %d: %w", depth, err)
			}
			if st.quality(want) >= 1 {
				continue // every column satisfied exactly; no reason to grow
			}
			for _, ds := range st.datasets {
				for _, edge := range e.disc.Index().EdgesFor(ds) {
					if edge.Containment < want.MinJoinScore {
						continue
					}
					inSide, outSide := edge.A, edge.B
					if outSide.Dataset == ds {
						inSide, outSide = edge.B, edge.A
					}
					if inSide.Dataset != ds || st.has(outSide.Dataset) {
						continue
					}
					newP := providers[outSide.Dataset]
					adds := false
					for w, pr := range newP {
						if cur, ok := st.covered[w]; !ok || pr.mode < cur.mode {
							adds = true
							break
						}
					}
					if !adds {
						continue
					}
					ns := st.clone()
					ns.datasets = append(ns.datasets, outSide.Dataset)
					ns.joins = append(ns.joins, joinStep{left: inSide, right: outSide, score: edge.Containment})
					for w, pr := range newP {
						if cur, ok := ns.covered[w]; !ok || pr.mode < cur.mode {
							ns.covered[w] = pr
						}
					}
					next = append(next, ns)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		sortStates(next, want)
		dedup := next[:0]
		seen := map[string]bool{}
		for _, st := range next {
			k := st.key()
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, st)
			}
		}
		next = dedup
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		for _, st := range next {
			if _, ok := finals[st.key()]; !ok {
				finals[st.key()] = st
			}
		}
		beam = next
	}

	// Materialize final states. Sibling candidates frequently share join
	// prefixes (the beam grows states one dataset at a time), so a per-build
	// memo lets later candidates reuse earlier candidates' join work — the
	// first step toward the factorised candidate representation (FDB).
	var states []*state
	for _, st := range finals {
		states = append(states, st)
	}
	sortStates(states, want)
	memo := &subJoinMemo{entries: map[string]subJoinEntry{}}
	var out []Candidate
	for _, st := range states {
		if len(out) >= want.MaxCandidates {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dod: build abandoned during materialize: %w", err)
		}
		cand, err := e.materialize(ctx, st, want, memo)
		if err != nil {
			continue // a failed plan just drops out of the ranking
		}
		if cand.Rel().NumRows() < want.MinRows {
			continue
		}
		out = append(out, *cand)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dod: no candidate mashup materialized for %v", want.Columns)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		if out[i].Quality != out[j].Quality {
			return out[i].Quality > out[j].Quality
		}
		if out[i].Rel().NumRows() != out[j].Rel().NumRows() {
			return out[i].Rel().NumRows() > out[j].Rel().NumRows()
		}
		return len(out[i].Datasets) < len(out[j].Datasets)
	})
	return out, nil
}

func sortStates(states []*state, want Want) {
	sort.SliceStable(states, func(i, j int) bool {
		qi, qj := states[i].quality(want), states[j].quality(want)
		if qi != qj {
			return qi > qj
		}
		if len(states[i].datasets) != len(states[j].datasets) {
			return len(states[i].datasets) < len(states[j].datasets)
		}
		return states[i].key() < states[j].key()
	})
}

// subJoinEntry is a memoized join prefix: the relation after the prefix's
// joins plus the colMap at that point. The colMap snapshot is cloned
// on both store and reuse — later joins extend it in place.
type subJoinEntry struct {
	rel    *relation.Relation
	colMap map[index.ColRef]string
}

// subJoinMemo caches join prefixes within one buildLocked call, keyed by the
// ordered sequence of (base dataset, join edges) — join order matters for
// both row order and collision-suffixed column names, so the key is the
// prefix itself, not the dataset set. Entries are shared across candidates;
// that is safe because no downstream operator mutates relation rows in place.
type subJoinMemo struct {
	entries map[string]subJoinEntry
}

func cloneColMap(m map[index.ColRef]string) map[index.ColRef]string {
	out := make(map[index.ColRef]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// materialize turns a beam state into a relation, reusing memoized join
// prefixes from sibling candidates where possible.
func (e *Engine) materialize(ctx context.Context, st *state, want Want, memo *subJoinMemo) (*Candidate, error) {
	plan := []string{fmt.Sprintf("load %s", st.datasets[0])}
	prefix := "base:" + st.datasets[0]
	var rel *relation.Relation
	var colMap map[index.ColRef]string
	if ent, ok := memo.entries[prefix]; ok {
		e.subjoinHits.Add(1)
		rel = ent.rel
		colMap = cloneColMap(ent.colMap)
	} else {
		base, err := e.cat.Get(catalog.DatasetID(st.datasets[0]))
		if err != nil {
			return nil, err
		}
		rel = base
		// colMap tracks where each source column lives in the running relation.
		colMap = map[index.ColRef]string{}
		for _, c := range base.Schema {
			colMap[index.ColRef{Dataset: st.datasets[0], Column: c.Name}] = c.Name
		}
		memo.entries[prefix] = subJoinEntry{rel: rel, colMap: cloneColMap(colMap)}
	}

	for _, js := range st.joins {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dod: build abandoned mid-join: %w", err)
		}
		plan = append(plan, fmt.Sprintf("join %s on %s.%s = %s.%s (score %.2f)",
			js.right.Dataset, js.left.Dataset, js.left.Column, js.right.Dataset, js.right.Column, js.score))
		prefix += "|" + js.right.Dataset + "⋈" + js.left.Dataset + "." + js.left.Column + "=" + js.right.Column
		if ent, ok := memo.entries[prefix]; ok {
			e.subjoinHits.Add(1)
			rel = ent.rel
			colMap = cloneColMap(ent.colMap)
			continue
		}
		rrel, err := e.cat.Get(catalog.DatasetID(js.right.Dataset))
		if err != nil {
			return nil, err
		}
		leftName, ok := colMap[js.left]
		if !ok {
			return nil, fmt.Errorf("dod: lost track of join column %v", js.left)
		}
		join, err := relation.NewHashJoin(relation.NewScan(rel), relation.NewScan(rrel), rel.Name, rrel.Name,
			relation.JoinPair{Left: leftName, Right: js.right.Column})
		if err != nil {
			return nil, err
		}
		joined, err := relation.Materialize(join)
		if err != nil {
			return nil, err
		}
		joined.Name = rel.Name + "⋈" + rrel.Name
		// The right columns but the join column follow the left ones, in
		// order, under the names the join gave them.
		out := joined.Schema[len(rel.Schema):]
		for _, c := range rrel.Schema {
			if c.Name != js.right.Column {
				colMap[index.ColRef{Dataset: js.right.Dataset, Column: c.Name}] = out[0].Name
				out = out[1:]
			}
		}
		rel = joined
		memo.entries[prefix] = subJoinEntry{rel: rel, colMap: cloneColMap(colMap)}
	}

	// Satisfy wanted columns: map, rename and project the joined relation in
	// one pipeline, drained once.
	tail := relation.NewScan(rel)
	var err error
	var present []string
	var qualitySum float64
	for _, w := range want.Columns {
		if tail.Schema().Has(w) {
			present = append(present, w)
			qualitySum += provideDirect.weight()
			continue
		}
		pr, ds, ok := e.bestProvider(st, w, want)
		if !ok {
			continue
		}
		cn, ok := colMap[index.ColRef{Dataset: ds, Column: pr.sourceCol}]
		if !ok || !tail.Schema().Has(cn) {
			continue
		}
		if pr.transform != nil {
			if tail, err = relation.NewMap(tail, cn, pr.transform.Kind, pr.transform.Fn); err != nil {
				return nil, err
			}
			plan = append(plan, fmt.Sprintf("apply transform %s to %s.%s", pr.transform.Name, ds, pr.sourceCol))
		}
		if tail, err = relation.NewRename(tail, cn, w); err != nil {
			return nil, err
		}
		if cn != w {
			plan = append(plan, fmt.Sprintf("rename %s -> %s", cn, w))
		}
		present = append(present, w)
		qualitySum += pr.mode.weight()
	}
	if len(present) == 0 {
		return nil, fmt.Errorf("dod: state materialized no wanted columns")
	}
	if tail, err = relation.NewProject(tail, present...); err != nil {
		return nil, err
	}
	proj, err := relation.Materialize(tail)
	if err != nil {
		return nil, err
	}
	proj.Name = "mashup(" + strings.Join(st.datasets, "+") + ")"
	plan = append(plan, fmt.Sprintf("project %v", present))
	ds := append([]string(nil), st.datasets...)
	sort.Strings(ds)
	return &Candidate{
		rel:      proj,
		Coverage: float64(len(present)) / float64(len(want.Columns)),
		Quality:  qualitySum / float64(len(want.Columns)),
		Datasets: ds,
		Plan:     plan,
	}, nil
}

// bestProvider picks the best provider of wanted column w among the state's
// datasets.
func (e *Engine) bestProvider(st *state, w string, want Want) (provider, string, bool) {
	var best provider
	bestDS := ""
	found := false
	for _, ds := range st.datasets {
		p := e.providersFor(ds, want)
		pr, ok := p[w]
		if !ok {
			continue
		}
		if !found || pr.mode < best.mode {
			best, bestDS, found = pr, ds, true
		}
	}
	return best, bestDS, found
}
