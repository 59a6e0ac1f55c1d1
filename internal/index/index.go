// Package index implements the Index Builder of the Mashup Builder (paper
// §5.2): it "processes the output schema produced by the metadata engine and
// shapes data so it can be consumed by the dataset-on-demand engine. Among
// other tasks, the index builder materializes join paths between files, and
// it identifies candidate functions to map attributes to each other."
//
// Three index structures are built from column profiles:
//
//   - an inverted token index over column names and frequent values, used by
//     keyword discovery;
//   - the join graph: scored (dataset, column)↔(dataset, column) edges with
//     estimated Jaccard and containment, the raw material for DoD join-path
//     enumeration;
//   - an inverted posting per MinHash sketch slot — the value a column holds
//     there → the columns holding it — from which Add draws every column a
//     new one can join and few others, so indexing one more dataset costs
//     its own columns × profile.MinHashSize, not the catalog.
//
// Build seeds the join graph from a batch of profiles, pruning the quadratic
// pairwise search with LSH buckets over the sketches (ablation E6) or, with
// Config.Exhaustive, comparing every pair. The metadata engine is always on
// (paper §5.1): the platform builds an empty index and Adds each dataset as
// it is shared, and a restore re-Adds the whole catalog in share order.
package index

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/profile"
	"repro/internal/relation"
)

// ColRef names a column within a dataset.
type ColRef struct {
	Dataset string
	Column  string
}

// JoinEdge is a candidate join between two columns, scored by estimated set
// overlap of their contents.
type JoinEdge struct {
	A, B        ColRef
	Jaccard     float64
	Containment float64 // max of A-in-B, B-in-A
}

// Config controls index construction.
type Config struct {
	// MinJaccard is the similarity threshold for keeping a join edge.
	MinJaccard float64
	// LSHBands partitions the MinHash sketch into bands; columns sharing any
	// band bucket become comparison candidates. More bands = more recall.
	LSHBands int
	// Exhaustive disables LSH pruning and compares all column pairs — the
	// baseline for the LSH ablation bench.
	Exhaustive bool
	// RequireKindMatch keeps only edges between same-kind columns.
	RequireKindMatch bool
	// MinDistinct drops join edges touching low-cardinality columns:
	// booleans and tiny enums always look identical under MinHash but make
	// catastrophic join keys.
	MinDistinct int
}

// DefaultConfig returns the settings used by the platform.
func DefaultConfig() Config {
	return Config{MinJaccard: 0.1, LSHBands: 16, RequireKindMatch: true, MinDistinct: 8}
}

// Index is the built structure.
type Index struct {
	cfg      Config
	profiles map[string]*profile.DatasetProfile
	tokens   map[string][]ColRef // token -> columns mentioning it
	edges    []JoinEdge
	byDS     map[string][]int // dataset -> indices of the edges touching it
	slots    postings         // the joinable columns, by sketch slot value
}

// Build constructs the index from the dataset profiles. cfg.MinJaccard must be
// positive: Add only considers columns sharing a sketch value, i.e. those
// estimating a Jaccard above zero.
func Build(cfg Config, profiles []*profile.DatasetProfile) *Index {
	if !(cfg.MinJaccard > 0) {
		panic("index: Config.MinJaccard must be positive")
	}
	ix := &Index{
		cfg:      cfg,
		profiles: map[string]*profile.DatasetProfile{},
		tokens:   map[string][]ColRef{},
		byDS:     map[string][]int{},
		slots:    newPostings(),
	}
	for _, dp := range profiles {
		ix.profiles[dp.Dataset] = dp
		ix.indexTokens(dp)
		ix.post(dp)
	}
	ix.buildJoinGraph(profiles)
	return ix
}

// Add incrementally indexes one more dataset profile — replacing the stored
// one of the same dataset — by comparing each of its columns with the
// existing columns that share a sketch slot value with it: every column it can
// make a join edge with, and in practice few others. The metadata engine is
// always-on (paper §5.1); Add is the hook it calls after re-profiling a
// changed dataset.
func (ix *Index) Add(dp *profile.DatasetProfile) {
	if _, ok := ix.profiles[dp.Dataset]; ok {
		ix.remove(dp.Dataset)
	}
	ix.profiles[dp.Dataset] = dp
	ix.indexTokens(dp)
	var cands []int32
	for i := range dp.Columns {
		a := &dp.Columns[i]
		if !ix.joinable(a) {
			continue
		}
		cands = ix.slots.candidates(&a.Sketch, cands[:0])
		for _, o := range cands {
			c := ix.slots.cols[o]
			ix.tryEdge(a, &c.dp.Columns[c.ci])
		}
	}
	ix.post(dp)
}

// joinable reports whether a column can take part in a join edge at all, and
// so whether it is posted: tryEdge refuses one with fewer distinct values than
// MinDistinct, and an empty one estimates a Jaccard of zero with anything.
func (ix *Index) joinable(cp *profile.ColumnProfile) bool {
	return cp.Distinct > 0 && cp.Distinct >= ix.cfg.MinDistinct
}

// post enters dp's joinable columns into the slot postings.
func (ix *Index) post(dp *profile.DatasetProfile) {
	for i := range dp.Columns {
		if ix.joinable(&dp.Columns[i]) {
			ix.slots.add(dp, i)
		}
	}
}

// remove drops a dataset: its own tokens' and slot values' postings (keys it
// leaves empty go too) and the edges touching it.
func (ix *Index) remove(dataset string) {
	dp := ix.profiles[dataset]
	delete(ix.profiles, dataset)
	for i := range dp.Columns {
		cp := &dp.Columns[i]
		for _, tok := range columnTokens(cp) {
			out := slices.DeleteFunc(ix.tokens[tok], func(r ColRef) bool { return r.Dataset == dataset })
			if len(out) == 0 {
				delete(ix.tokens, tok)
			} else {
				ix.tokens[tok] = out
			}
		}
		if ix.joinable(cp) {
			ix.slots.remove(dp, i)
		}
	}
	var kept []JoinEdge
	for _, e := range ix.edges {
		if e.A.Dataset != dataset && e.B.Dataset != dataset {
			kept = append(kept, e)
		}
	}
	ix.edges = kept
	ix.byDS = map[string][]int{}
	for i, e := range ix.edges {
		ix.byDS[e.A.Dataset] = append(ix.byDS[e.A.Dataset], i)
		ix.byDS[e.B.Dataset] = append(ix.byDS[e.B.Dataset], i)
	}
}

// Tokenize splits an identifier or value into lowercase tokens on non-alnum
// boundaries and camelCase humps.
func Tokenize(s string) []string {
	var out []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			out = append(out, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur = append(cur, r)
			prevLower = true
		case r >= 'A' && r <= 'Z':
			if prevLower {
				flush()
			}
			cur = append(cur, r+('a'-'A'))
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return out
}

func (ix *Index) indexTokens(dp *profile.DatasetProfile) {
	for i := range dp.Columns {
		cp := &dp.Columns[i]
		ref := ColRef{dp.Dataset, cp.Column}
		for _, tok := range columnTokens(cp) {
			ix.tokens[tok] = append(ix.tokens[tok], ref)
		}
	}
}

// columnTokens lists, once each, the tokens a column is looked up by: those of
// its name, its whole lowercased name, and those of its frequent values.
func columnTokens(cp *profile.ColumnProfile) []string {
	var out []string
	seen := map[string]bool{}
	add := func(tok string) {
		if tok == "" || seen[tok] {
			return
		}
		seen[tok] = true
		out = append(out, tok)
	}
	for _, tok := range Tokenize(cp.Column) {
		add(tok)
	}
	add(strings.ToLower(cp.Column))
	for _, v := range cp.TopValues {
		for _, tok := range Tokenize(v) {
			add(tok)
		}
	}
	return out
}

func (ix *Index) buildJoinGraph(profiles []*profile.DatasetProfile) {
	type colEntry struct {
		dp *profile.DatasetProfile
		ci int
	}
	var cols []colEntry
	for _, dp := range profiles {
		for i := range dp.Columns {
			cols = append(cols, colEntry{dp, i})
		}
	}
	if ix.cfg.Exhaustive {
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				ix.tryEdge(&cols[i].dp.Columns[cols[i].ci], &cols[j].dp.Columns[cols[j].ci])
			}
		}
		return
	}
	// LSH: columns sharing any band bucket are candidates.
	bands := ix.cfg.LSHBands
	if bands <= 0 {
		bands = 16
	}
	rows := profile.MinHashSize / bands
	if rows < 1 {
		rows = 1
	}
	buckets := map[uint64][]int32{}
	for idx, ce := range cols {
		cp := &ce.dp.Columns[ce.ci]
		for b := 0; b < bands; b++ {
			key := bandKey(cp.Sketch, b, rows)
			buckets[key] = append(buckets[key], int32(idx))
		}
	}
	seen := map[uint64]bool{}
	for _, members := range buckets {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				pair := uint64(a)<<32 | uint64(uint32(b))
				if seen[pair] {
					continue
				}
				seen[pair] = true
				ix.tryEdge(&cols[a].dp.Columns[cols[a].ci], &cols[b].dp.Columns[cols[b].ci])
			}
		}
	}
}

// bandKey mixes one band of the sketch into a 64-bit bucket key.
func bandKey(m profile.MinHash, band, rows int) uint64 {
	h := uint64(band)*0x9e3779b97f4a7c15 + 0x517cc1b727220a95
	for i := band * rows; i < (band+1)*rows && i < profile.MinHashSize; i++ {
		h ^= m[i]
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

func (ix *Index) tryEdge(a, b *profile.ColumnProfile) {
	if a.Dataset == b.Dataset {
		return
	}
	if ix.cfg.RequireKindMatch && !kindsJoinable(a, b) {
		return
	}
	if a.Distinct < ix.cfg.MinDistinct || b.Distinct < ix.cfg.MinDistinct {
		return
	}
	j := a.Sketch.Jaccard(&b.Sketch)
	if j < ix.cfg.MinJaccard {
		return
	}
	e := JoinEdge{
		A:           ColRef{a.Dataset, a.Column},
		B:           ColRef{b.Dataset, b.Column},
		Jaccard:     j,
		Containment: max(profile.ContainmentEstimate(a, b, j), profile.ContainmentEstimate(b, a, j)),
	}
	i := len(ix.edges)
	ix.edges = append(ix.edges, e)
	ix.byDS[e.A.Dataset] = append(ix.byDS[e.A.Dataset], i)
	ix.byDS[e.B.Dataset] = append(ix.byDS[e.B.Dataset], i)
}

func kindsJoinable(a, b *profile.ColumnProfile) bool {
	num := func(k relation.Kind) bool { return k == relation.KindInt || k == relation.KindFloat }
	return a.Kind == b.Kind || (num(a.Kind) && num(b.Kind))
}

// Edges returns all join edges sorted by descending Jaccard.
func (ix *Index) Edges() []JoinEdge {
	out := make([]JoinEdge, len(ix.edges))
	copy(out, ix.edges)
	sort.Slice(out, func(i, j int) bool { return out[i].Jaccard > out[j].Jaccard })
	return out
}

// EdgesFor returns the join edges touching any column of the dataset, by
// descending Jaccard; ties — every exact key↔key edge scores 1.0 — keep the
// order the edges were indexed in. The DoD beam search breaks its own ties by
// this order, so it must not depend on which other edges exist: an unstable
// sort reorders more than 12 ties whenever the slice length changes, i.e.
// whenever an unrelated dataset joins the same key column.
func (ix *Index) EdgesFor(dataset string) []JoinEdge {
	ids := ix.byDS[dataset]
	out := make([]JoinEdge, len(ids))
	for i, id := range ids {
		out[i] = ix.edges[id]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Jaccard > out[j].Jaccard })
	return out
}

// Lookup returns columns whose name or frequent values mention the token.
func (ix *Index) Lookup(token string) []ColRef {
	refs := ix.tokens[strings.ToLower(token)]
	out := make([]ColRef, len(refs))
	copy(out, refs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// Profile returns the stored profile for a dataset (nil when unknown).
func (ix *Index) Profile(dataset string) *profile.DatasetProfile {
	return ix.profiles[dataset]
}

// Datasets returns all indexed dataset IDs, sorted.
func (ix *Index) Datasets() []string {
	out := make([]string, 0, len(ix.profiles))
	for d := range ix.profiles {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// NumEdges returns the size of the join graph.
func (ix *Index) NumEdges() int { return len(ix.edges) }
