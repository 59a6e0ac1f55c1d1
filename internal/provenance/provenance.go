// Package provenance tracks why-provenance for mashups: every row of a
// mashup carries the set of source rows (dataset, row index) that produced
// it. The revenue sharing function (paper §3.2.3) "reverse engineers" the
// arbiter's combination function f(); for relational plans this package makes
// that reverse engineering exact by propagating lineage through every
// operator, in the spirit of provenance semirings.
//
// Operators execute as lineage-carrying pull iterators layered on
// internal/relation's streaming engine: each Iter yields (row, lineage)
// pairs, and the join propagates lineage directly through its hash table
// instead of the historical trick of tagging both sides with hidden ordinal
// columns, joining eagerly, and projecting the ordinals away (which copied
// every intermediate row three times). The eager functions remain as
// Materialize wrappers with identical results.
package provenance

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/relation"
)

// RowRef identifies one source row.
type RowRef struct {
	Dataset string
	Row     int
}

// Lineage is the set of source rows contributing to one output row.
type Lineage []RowRef

// merge unions two lineages (both sorted, deduplicated output).
func merge(a, b Lineage) Lineage {
	out := make(Lineage, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Row < out[j].Row
	})
	dedup := out[:0]
	for i, r := range out {
		if i == 0 || r != out[i-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// Annotated is a relation whose rows each carry lineage. Its lineage is
// final once the constructor or operator that built it returns: nothing here
// changes an Annotated's Lineage afterwards (operators build new ones), and
// callers must not either — Datasets memoizes what it finds there.
type Annotated struct {
	Rel     *relation.Relation
	Lineage []Lineage // parallel to Rel.Rows

	datasetsOnce sync.Once
	datasets     []string // Datasets, computed on its first call
}

// FromSource wraps a source relation: row i's lineage is {(datasetID, i)}.
func FromSource(datasetID string, r *relation.Relation) *Annotated {
	a := &Annotated{Rel: r, Lineage: make([]Lineage, r.NumRows())}
	for i := range a.Lineage {
		a.Lineage[i] = Lineage{{Dataset: datasetID, Row: i}}
	}
	return a
}

// check panics if lineage and rows fell out of sync — an internal invariant.
func (a *Annotated) check() {
	if len(a.Lineage) != a.Rel.NumRows() {
		panic(fmt.Sprintf("provenance: lineage len %d != rows %d", len(a.Lineage), a.Rel.NumRows()))
	}
}

// Iter is a lineage-carrying pull iterator: relation.Iter plus a Lineage per
// row. The same ownership rules apply — rows from shape-preserving operators
// alias their source, and yielded Lineage values are shared, not copied, so
// consumers must not mutate them in place.
type Iter interface {
	Next() ([]relation.Value, Lineage, bool)
	Schema() relation.Schema
	Close()
}

type errIter interface{ Err() error }

// IterErr returns the first mid-stream error of the pipeline, or nil.
func IterErr(it Iter) error {
	if e, ok := it.(errIter); ok {
		return e.Err()
	}
	return nil
}

// Materialize drains it into an Annotated, preserving row order. The result
// relation's Name is left for the caller to set.
func Materialize(it Iter) (*Annotated, error) {
	defer it.Close()
	out := &Annotated{Rel: &relation.Relation{Schema: it.Schema().Clone()}}
	for {
		row, lin, ok := it.Next()
		if !ok {
			break
		}
		out.Rel.Rows = append(out.Rel.Rows, row)
		out.Lineage = append(out.Lineage, lin)
	}
	if err := IterErr(it); err != nil {
		return nil, err
	}
	relation.RecordMaterialization(out.Rel.NumRows())
	return out, nil
}

// ---- sources ----

type scanIter struct {
	a   *Annotated
	pos int
}

// Scan streams an annotated relation's rows with their lineage.
func Scan(a *Annotated) Iter { return &scanIter{a: a} }

func (s *scanIter) Next() ([]relation.Value, Lineage, bool) {
	if s.pos >= s.a.Rel.NumRows() {
		return nil, nil, false
	}
	row, lin := s.a.Rel.Rows[s.pos], s.a.Lineage[s.pos]
	s.pos++
	return row, lin, true
}
func (s *scanIter) Schema() relation.Schema { return s.a.Rel.Schema }
func (s *scanIter) Close()                  {}

type sourceIter struct {
	dataset string
	rel     *relation.Relation
	pos     int
}

// ScanSource streams a base relation, minting each row's singleton lineage
// {(datasetID, i)} lazily — the streaming equivalent of FromSource.
func ScanSource(datasetID string, r *relation.Relation) Iter {
	return &sourceIter{dataset: datasetID, rel: r}
}

func (s *sourceIter) Next() ([]relation.Value, Lineage, bool) {
	if s.pos >= len(s.rel.Rows) {
		return nil, nil, false
	}
	row := s.rel.Rows[s.pos]
	lin := Lineage{{Dataset: s.dataset, Row: s.pos}}
	s.pos++
	return row, lin, true
}
func (s *sourceIter) Schema() relation.Schema { return s.rel.Schema }
func (s *sourceIter) Close()                  {}

// ---- streaming operators ----

type selectIter struct {
	src    Iter
	schema relation.Schema
	pred   relation.Predicate
}

// NewSelect streams the rows of src satisfying pred, keeping their lineage.
func NewSelect(src Iter, pred relation.Predicate) Iter {
	return &selectIter{src: src, schema: src.Schema(), pred: pred}
}

func (s *selectIter) Next() ([]relation.Value, Lineage, bool) {
	for {
		row, lin, ok := s.src.Next()
		if !ok {
			return nil, nil, false
		}
		if s.pred(row, s.schema) {
			return row, lin, true
		}
	}
}
func (s *selectIter) Schema() relation.Schema { return s.schema }
func (s *selectIter) Close()                  { s.src.Close() }
func (s *selectIter) Err() error              { return IterErr(s.src) }

type projectIter struct {
	src    Iter
	schema relation.Schema
	idx    []int
}

// NewProject keeps the named columns; lineage is unchanged (why-provenance
// of a projected row is the provenance of the original row).
func NewProject(src Iter, names ...string) (Iter, error) {
	sub, err := src.Schema().Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = src.Schema().IndexOf(n)
	}
	return &projectIter{src: src, schema: sub, idx: idx}, nil
}

func (p *projectIter) Next() ([]relation.Value, Lineage, bool) {
	row, lin, ok := p.src.Next()
	if !ok {
		return nil, nil, false
	}
	nr := make([]relation.Value, len(p.idx))
	for i, k := range p.idx {
		nr[i] = row[k]
	}
	return nr, lin, true
}
func (p *projectIter) Schema() relation.Schema { return p.schema }
func (p *projectIter) Close()                  { p.src.Close() }
func (p *projectIter) Err() error              { return IterErr(p.src) }

type mapIter struct {
	src    Iter
	schema relation.Schema
	col    int
	fn     func(relation.Value) relation.Value
}

// NewMap applies a column transformation, keeping lineage.
func NewMap(src Iter, col string, kind relation.Kind, fn func(relation.Value) relation.Value) (Iter, error) {
	i := src.Schema().IndexOf(col)
	if i < 0 {
		return nil, fmt.Errorf("relation: map: no column %q", col)
	}
	s := src.Schema().Clone()
	s[i].Kind = kind
	return &mapIter{src: src, schema: s, col: i, fn: fn}, nil
}

func (m *mapIter) Next() ([]relation.Value, Lineage, bool) {
	row, lin, ok := m.src.Next()
	if !ok {
		return nil, nil, false
	}
	nr := make([]relation.Value, len(row))
	copy(nr, row)
	nr[m.col] = m.fn(nr[m.col])
	return nr, lin, true
}
func (m *mapIter) Schema() relation.Schema { return m.schema }
func (m *mapIter) Close()                  { m.src.Close() }
func (m *mapIter) Err() error              { return IterErr(m.src) }

type renameIter struct {
	src    Iter
	schema relation.Schema
}

// NewRename renames a column, keeping lineage.
func NewRename(src Iter, old, new string) (Iter, error) {
	s, err := src.Schema().Rename(old, new)
	if err != nil {
		return nil, err
	}
	return &renameIter{src: src, schema: s}, nil
}

func (r *renameIter) Next() ([]relation.Value, Lineage, bool) { return r.src.Next() }
func (r *renameIter) Schema() relation.Schema                 { return r.schema }
func (r *renameIter) Close()                                  { r.src.Close() }
func (r *renameIter) Err() error                              { return IterErr(r.src) }

type unionIter struct {
	a, b Iter
	onB  bool
}

// NewUnion concatenates two lineage streams. Schemas must be equal.
func NewUnion(a, b Iter) (Iter, error) {
	if !a.Schema().Equal(b.Schema()) {
		return nil, fmt.Errorf("relation: union schema mismatch %s vs %s", a.Schema(), b.Schema())
	}
	return &unionIter{a: a, b: b}, nil
}

func (u *unionIter) Next() ([]relation.Value, Lineage, bool) {
	if !u.onB {
		if row, lin, ok := u.a.Next(); ok {
			return row, lin, true
		}
		if err := IterErr(u.a); err != nil {
			return nil, nil, false
		}
		u.onB = true
	}
	return u.b.Next()
}
func (u *unionIter) Schema() relation.Schema { return u.a.Schema() }
func (u *unionIter) Close()                  { u.a.Close(); u.b.Close() }
func (u *unionIter) Err() error {
	if err := IterErr(u.a); err != nil {
		return err
	}
	return IterErr(u.b)
}

// rmatch is one build-side entry: the kept-right column projection plus the
// right row's lineage.
type rmatch struct {
	proj []relation.Value
	lin  Lineage
}

type joinIter struct {
	left, right Iter
	layout      relation.JoinLayout
	outName     string
	built       bool
	table       map[string][]rmatch
	lrow        []relation.Value
	llin        Lineage
	pending     []rmatch
	pi          int
	keyBuf      []byte
	emitted     int
	err         error
	closed      bool
}

// NewHashJoin streams the inner equi-join of two lineage streams; each
// output row's lineage is the merge of the joined input rows' lineages,
// propagated directly through the hash table.
func NewHashJoin(l, r Iter, lname, rname string, on ...relation.JoinPair) (Iter, error) {
	layout, err := relation.NewJoinLayout(lname, l.Schema(), rname, r.Schema(), on...)
	if err != nil {
		return nil, err
	}
	return &joinIter{left: l, right: r, layout: layout, outName: lname + "⋈" + rname}, nil
}

func (j *joinIter) build() {
	j.built = true
	j.table = map[string][]rmatch{}
	for {
		rrow, rlin, ok := j.right.Next()
		if !ok {
			j.err = IterErr(j.right)
			return
		}
		if anyNull(rrow, j.layout.Right) {
			continue
		}
		j.keyBuf = relation.AppendRowKey(j.keyBuf[:0], rrow, j.layout.Right)
		proj := make([]relation.Value, len(j.layout.RightKeep))
		for i, k := range j.layout.RightKeep {
			proj[i] = rrow[k]
		}
		k := string(j.keyBuf)
		j.table[k] = append(j.table[k], rmatch{proj: proj, lin: rlin})
	}
}

func (j *joinIter) Next() ([]relation.Value, Lineage, bool) {
	if j.err != nil {
		return nil, nil, false
	}
	if !j.built {
		j.build()
		if j.err != nil {
			return nil, nil, false
		}
	}
	for {
		if j.pi < len(j.pending) {
			if j.emitted >= maxJoinRows {
				j.err = fmt.Errorf("relation: join %s would exceed %d rows", j.outName, maxJoinRows)
				return nil, nil, false
			}
			m := j.pending[j.pi]
			j.pi++
			nr := make([]relation.Value, 0, len(j.layout.Schema))
			nr = append(nr, j.lrow...)
			nr = append(nr, m.proj...)
			j.emitted++
			return nr, merge(j.llin, m.lin), true
		}
		lrow, llin, ok := j.left.Next()
		if !ok {
			j.err = IterErr(j.left)
			return nil, nil, false
		}
		if anyNull(lrow, j.layout.Left) {
			continue
		}
		j.keyBuf = relation.AppendRowKey(j.keyBuf[:0], lrow, j.layout.Left)
		matches := j.table[string(j.keyBuf)]
		if len(matches) == 0 {
			continue
		}
		j.lrow, j.llin = lrow, llin
		j.pending = matches
		j.pi = 0
	}
}

func (j *joinIter) Schema() relation.Schema { return j.layout.Schema }
func (j *joinIter) Err() error              { return j.err }
func (j *joinIter) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.left.Close()
	j.right.Close()
	j.table = nil
}

// maxJoinRows mirrors relation's guard so the lineage join fails with the
// same error text at the same output cardinality.
const maxJoinRows = 4_000_000

func anyNull(row []relation.Value, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

// ---- eager wrappers ----

// Select filters rows, keeping their lineage.
func Select(a *Annotated, pred relation.Predicate) *Annotated {
	a.check()
	out, _ := Materialize(NewSelect(Scan(a), pred))
	out.Rel.Name = a.Rel.Name + "_sel"
	return out
}

// Project keeps the named columns; lineage is unchanged (why-provenance of a
// projected row is the provenance of the original row).
func Project(a *Annotated, names ...string) (*Annotated, error) {
	a.check()
	it, err := NewProject(Scan(a), names...)
	if err != nil {
		return nil, err
	}
	out, _ := Materialize(it)
	out.Rel.Name = a.Rel.Name + "_proj"
	return out, nil
}

// Map applies a column transformation, keeping lineage.
func Map(a *Annotated, col string, kind relation.Kind, fn func(relation.Value) relation.Value) (*Annotated, error) {
	a.check()
	it, err := NewMap(Scan(a), col, kind, fn)
	if err != nil {
		return nil, fmt.Errorf("relation %q: no column %q", a.Rel.Name, col)
	}
	out, _ := Materialize(it)
	out.Rel.Name = a.Rel.Name
	return out, nil
}

// Rename renames a column, keeping lineage.
func Rename(a *Annotated, old, new string) (*Annotated, error) {
	a.check()
	it, err := NewRename(Scan(a), old, new)
	if err != nil {
		return nil, fmt.Errorf("relation %q: %w", a.Rel.Name, err)
	}
	out, _ := Materialize(it)
	out.Rel.Name = a.Rel.Name
	return out, nil
}

// HashJoin joins two annotated relations; each output row's lineage is the
// union of the joined input rows' lineages.
func HashJoin(l, r *Annotated, on ...relation.JoinPair) (*Annotated, error) {
	l.check()
	r.check()
	it, err := NewHashJoin(Scan(l), Scan(r), l.Rel.Name, r.Rel.Name, on...)
	if err != nil {
		return nil, err
	}
	out, err := Materialize(it)
	if err != nil {
		return nil, err
	}
	out.Rel.Name = l.Rel.Name + "⋈" + r.Rel.Name
	return out, nil
}

// Union concatenates two annotated relations.
func Union(a, b *Annotated) (*Annotated, error) {
	a.check()
	b.check()
	it, err := NewUnion(Scan(a), Scan(b))
	if err != nil {
		return nil, err
	}
	out, _ := Materialize(it)
	out.Rel.Name = a.Rel.Name + "_union"
	return out, nil
}

// Distinct removes duplicate rows, merging the lineages of collapsed rows —
// every source row that could produce the output row shares credit. It stays
// eager: collapsing lineage needs every duplicate before the first row's
// final lineage is known.
func Distinct(a *Annotated) *Annotated {
	a.check()
	out := &Annotated{Rel: relation.New(a.Rel.Name+"_dist", a.Rel.Schema)}
	idx := map[string]int{}
	var buf []byte
	for i, row := range a.Rel.Rows {
		buf = relation.AppendRowKey(buf[:0], row, nil)
		if j, ok := idx[string(buf)]; ok {
			out.Lineage[j] = merge(out.Lineage[j], a.Lineage[i])
			continue
		}
		idx[string(buf)] = len(out.Rel.Rows)
		out.Rel.Rows = append(out.Rel.Rows, row)
		out.Lineage = append(out.Lineage, a.Lineage[i])
	}
	return out
}

// DatasetContributions counts, per source dataset, how many output rows its
// rows contributed to. Revenue sharing weights sellers by these counts.
func (a *Annotated) DatasetContributions() map[string]int {
	a.check()
	out := map[string]int{}
	for _, lin := range a.Lineage {
		seen := map[string]bool{}
		for _, ref := range lin {
			if !seen[ref.Dataset] {
				seen[ref.Dataset] = true
				out[ref.Dataset]++
			}
		}
	}
	return out
}

// RowShares splits one unit of credit for each output row equally among the
// datasets appearing in its lineage, returning per-dataset totals. This is
// the per-row revenue-allocation → per-dataset revenue-sharing pipeline of
// §3.2.3 in its simplest (uniform per-row) form; the market package layers
// Shapley-style allocation on top.
func (a *Annotated) RowShares() map[string]float64 {
	a.check()
	out := map[string]float64{}
	for _, lin := range a.Lineage {
		ds := map[string]bool{}
		for _, ref := range lin {
			ds[ref.Dataset] = true
		}
		if len(ds) == 0 {
			continue
		}
		w := 1.0 / float64(len(ds))
		for d := range ds {
			out[d] += w
		}
	}
	return out
}

// Datasets returns the sorted set of datasets appearing anywhere in lineage.
// The lineage walk runs once per Annotated — a cached candidate answers every
// sale of its want group from one — and each caller gets its own copy of the
// result.
func (a *Annotated) Datasets() []string {
	a.datasetsOnce.Do(func() {
		set := map[string]bool{}
		for _, lin := range a.Lineage {
			for _, ref := range lin {
				set[ref.Dataset] = true
			}
		}
		a.datasets = make([]string, 0, len(set))
		for d := range set {
			a.datasets = append(a.datasets, d)
		}
		sort.Strings(a.datasets)
	})
	return slices.Clone(a.datasets)
}

// RestrictToDatasets returns a copy of the annotated relation keeping only
// rows whose lineage is fully contained in the allowed dataset set. The
// arbiter uses this to evaluate counterfactual mashups ("what would the
// mashup be without seller X?") when computing Shapley revenue allocations.
func (a *Annotated) RestrictToDatasets(allowed map[string]bool) *Annotated {
	a.check()
	out := &Annotated{Rel: relation.New(a.Rel.Name, a.Rel.Schema)}
	for i, lin := range a.Lineage {
		ok := true
		for _, ref := range lin {
			if !allowed[ref.Dataset] {
				ok = false
				break
			}
		}
		if ok {
			out.Rel.Rows = append(out.Rel.Rows, a.Rel.Rows[i])
			out.Lineage = append(out.Lineage, lin)
		}
	}
	return out
}
