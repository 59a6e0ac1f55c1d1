package relation

import (
	"fmt"
	"sync/atomic"
)

// Iter is a single-use Volcano-style pull iterator over rows. Next returns
// the next row and true, or (nil, false) when the stream is exhausted or an
// operator failed mid-stream (check IterErr after draining). Schema is fixed
// for the iterator's lifetime. Close releases child iterators and is
// idempotent; Materialize calls it for you.
//
// Ownership: rows returned by Next may alias the backing relation's storage
// (scan, select, limit, and union pass row references through), so callers
// must not mutate them in place. Operators that change row shape — project,
// map, add-column, join — always return freshly allocated rows. See the
// package documentation for the full retention rules.
type Iter interface {
	Next() ([]Value, bool)
	Schema() Schema
	Close()
}

// errIter is implemented by iterators that can fail mid-stream.
type errIter interface{ Err() error }

// IterErr returns the first error it hit mid-stream, or nil. A false from
// Next is ambiguous between exhaustion and failure; sinks must check IterErr
// before trusting the drained rows.
func IterErr(it Iter) error {
	if e, ok := it.(errIter); ok {
		return e.Err()
	}
	return nil
}

// sizeHinter lets operators with a known output bound pre-size sinks and
// hash tables. 0 means unknown.
type sizeHinter interface{ sizeHint() int }

func sizeHintOf(it Iter) int {
	if h, ok := it.(sizeHinter); ok {
		return h.sizeHint()
	}
	return 0
}

// streamStats holds process-wide streaming totals, sampled at metrics-scrape
// time by internal/engine (relation_rows_streamed_total and friends). They
// are bumped in batches at materialization, not per row, so the hot loop
// stays counter-free.
var streamStats struct {
	rows             atomic.Uint64
	materializations atomic.Uint64
}

// StreamCounters reports the process-wide number of rows drained through
// Materialize (and external sinks that call RecordMaterialization) and the
// number of materializations performed.
func StreamCounters() (rowsStreamed, materializations uint64) {
	return streamStats.rows.Load(), streamStats.materializations.Load()
}

// RecordMaterialization lets sinks outside this package report a drain of n
// rows into the shared streaming counters: provenance's HashJoin drains the
// join itself to pick up each row's JoinOrigin.
func RecordMaterialization(n int) {
	streamStats.rows.Add(uint64(n))
	streamStats.materializations.Add(1)
}

// Materialize drains it into a fresh *Relation, preserving row order. The
// result's Name is left empty for the caller to set. The iterator is closed
// before returning; a mid-stream operator error (e.g. the maxJoinRows guard)
// is returned instead of a partial relation.
func Materialize(it Iter) (*Relation, error) {
	defer it.Close()
	out := &Relation{Schema: it.Schema().Clone()}
	if n := sizeHintOf(it); n > 0 {
		out.Rows = make([][]Value, 0, n)
	}
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	if err := IterErr(it); err != nil {
		return nil, err
	}
	RecordMaterialization(len(out.Rows))
	return out, nil
}

// nullAt reports whether any of the indexed cells is NULL (null join keys
// never match, mirroring SQL equi-join semantics).
func nullAt(row []Value, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

// ---- scan ----

type scanIter struct {
	rel *Relation
	pos int
}

// NewScan streams the rows of r in order. Rows are passed by reference.
func NewScan(r *Relation) Iter { return &scanIter{rel: r} }

func (s *scanIter) Next() ([]Value, bool) {
	if s.pos >= len(s.rel.Rows) {
		return nil, false
	}
	row := s.rel.Rows[s.pos]
	s.pos++
	return row, true
}
func (s *scanIter) Schema() Schema { return s.rel.Schema }
func (s *scanIter) Close()         {}
func (s *scanIter) sizeHint() int  { return len(s.rel.Rows) }

// ---- select ----

type selectIter struct {
	src    Iter
	schema Schema
	pred   Predicate
}

// NewSelect streams the rows of src satisfying pred, preserving order.
func NewSelect(src Iter, pred Predicate) Iter {
	return &selectIter{src: src, schema: src.Schema(), pred: pred}
}

func (s *selectIter) Next() ([]Value, bool) {
	for {
		row, ok := s.src.Next()
		if !ok {
			return nil, false
		}
		if s.pred(row, s.schema) {
			return row, true
		}
	}
}
func (s *selectIter) Schema() Schema { return s.schema }
func (s *selectIter) Close()         { s.src.Close() }
func (s *selectIter) Err() error     { return IterErr(s.src) }

// ---- project ----

type projectIter struct {
	src    Iter
	schema Schema
	idx    []int
}

// NewProject streams src restricted to the named columns, in order. Output
// rows are freshly allocated.
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

func (p *projectIter) Next() ([]Value, bool) {
	row, ok := p.src.Next()
	if !ok {
		return nil, false
	}
	nr := make([]Value, len(p.idx))
	for i, k := range p.idx {
		nr[i] = row[k]
	}
	return nr, true
}
func (p *projectIter) Schema() Schema { return p.schema }
func (p *projectIter) Close()         { p.src.Close() }
func (p *projectIter) Err() error     { return IterErr(p.src) }
func (p *projectIter) sizeHint() int  { return sizeHintOf(p.src) }

// ---- rename ----

type renameIter struct {
	src    Iter
	schema Schema
}

// NewRename streams src with column old renamed to new. Rows pass through
// unchanged.
func NewRename(src Iter, old, new string) (Iter, error) {
	s, err := src.Schema().Rename(old, new)
	if err != nil {
		return nil, err
	}
	return &renameIter{src: src, schema: s}, nil
}

func (r *renameIter) Next() ([]Value, bool) { return r.src.Next() }
func (r *renameIter) Schema() Schema        { return r.schema }
func (r *renameIter) Close()                { r.src.Close() }
func (r *renameIter) Err() error            { return IterErr(r.src) }
func (r *renameIter) sizeHint() int         { return sizeHintOf(r.src) }

// ---- limit ----

type limitIter struct {
	src  Iter
	left int
}

// NewLimit streams at most n rows of src.
func NewLimit(src Iter, n int) Iter {
	if n < 0 {
		n = 0
	}
	return &limitIter{src: src, left: n}
}

func (l *limitIter) Next() ([]Value, bool) {
	if l.left <= 0 {
		return nil, false
	}
	row, ok := l.src.Next()
	if !ok {
		l.left = 0
		return nil, false
	}
	l.left--
	return row, true
}
func (l *limitIter) Schema() Schema { return l.src.Schema() }
func (l *limitIter) Close()         { l.src.Close() }
func (l *limitIter) Err() error     { return IterErr(l.src) }
func (l *limitIter) sizeHint() int {
	if h := sizeHintOf(l.src); h > 0 && h < l.left {
		return h
	}
	return l.left
}

// ---- union ----

type unionIter struct {
	a, b Iter
	onB  bool
}

// NewUnion streams the rows of a then b. Schemas must be equal.
func NewUnion(a, b Iter) (Iter, error) {
	if !a.Schema().Equal(b.Schema()) {
		return nil, fmt.Errorf("relation: union schema mismatch %s vs %s", a.Schema(), b.Schema())
	}
	return &unionIter{a: a, b: b}, nil
}

func (u *unionIter) Next() ([]Value, bool) {
	if !u.onB {
		if row, ok := u.a.Next(); ok {
			return row, true
		}
		if err := IterErr(u.a); err != nil {
			return nil, false
		}
		u.onB = true
	}
	return u.b.Next()
}
func (u *unionIter) Schema() Schema { return u.a.Schema() }
func (u *unionIter) Close()         { u.a.Close(); u.b.Close() }
func (u *unionIter) Err() error {
	if err := IterErr(u.a); err != nil {
		return err
	}
	return IterErr(u.b)
}
func (u *unionIter) sizeHint() int { return sizeHintOf(u.a) + sizeHintOf(u.b) }

// ---- map (single column) ----

type mapIter struct {
	src    Iter
	schema Schema
	col    int
	fn     func(Value) Value
}

// NewMap streams src with fn applied to the named column, optionally changing
// its kind. Output rows are freshly allocated copies.
func NewMap(src Iter, name string, newKind Kind, fn func(Value) Value) (Iter, error) {
	i := src.Schema().IndexOf(name)
	if i < 0 {
		return nil, fmt.Errorf("relation: map: no column %q", name)
	}
	s := src.Schema().Clone()
	s[i].Kind = newKind
	return &mapIter{src: src, schema: s, col: i, fn: fn}, nil
}

func (m *mapIter) Next() ([]Value, bool) {
	row, ok := m.src.Next()
	if !ok {
		return nil, false
	}
	nr := make([]Value, len(row))
	copy(nr, row)
	nr[m.col] = m.fn(nr[m.col])
	return nr, true
}
func (m *mapIter) Schema() Schema { return m.schema }
func (m *mapIter) Close()         { m.src.Close() }
func (m *mapIter) Err() error     { return IterErr(m.src) }
func (m *mapIter) sizeHint() int  { return sizeHintOf(m.src) }

// ---- map (whole row) ----

type mapRowsIter struct {
	src    Iter
	schema Schema
	fn     func(row []Value) []Value
}

// NewMapRows streams src through a whole-row transform producing rows of the
// given schema. fn must return a fresh row (it may read but not retain the
// input row). Fusion's resolution operators are the main client.
func NewMapRows(src Iter, schema Schema, fn func(row []Value) []Value) Iter {
	return &mapRowsIter{src: src, schema: schema, fn: fn}
}

func (m *mapRowsIter) Next() ([]Value, bool) {
	row, ok := m.src.Next()
	if !ok {
		return nil, false
	}
	return m.fn(row), true
}
func (m *mapRowsIter) Schema() Schema { return m.schema }
func (m *mapRowsIter) Close()         { m.src.Close() }
func (m *mapRowsIter) Err() error     { return IterErr(m.src) }
func (m *mapRowsIter) sizeHint() int  { return sizeHintOf(m.src) }

// ---- add-column ----

type addColumnIter struct {
	src       Iter
	srcSchema Schema
	schema    Schema
	fn        func(row []Value, schema Schema) Value
}

// NewAddColumn streams src with a computed column appended. fn sees the
// source row and source schema, exactly like the eager AddColumn.
func NewAddColumn(src Iter, col Column, fn func(row []Value, schema Schema) Value) Iter {
	srcSchema := src.Schema()
	return &addColumnIter{
		src:       src,
		srcSchema: srcSchema,
		schema:    append(srcSchema.Clone(), col),
		fn:        fn,
	}
}

func (a *addColumnIter) Next() ([]Value, bool) {
	row, ok := a.src.Next()
	if !ok {
		return nil, false
	}
	nr := make([]Value, 0, len(row)+1)
	nr = append(nr, row...)
	nr = append(nr, a.fn(row, a.srcSchema))
	return nr, true
}
func (a *addColumnIter) Schema() Schema { return a.schema }
func (a *addColumnIter) Close()         { a.src.Close() }
func (a *addColumnIter) Err() error     { return IterErr(a.src) }
func (a *addColumnIter) sizeHint() int  { return sizeHintOf(a.src) }

// ---- hash join ----

// JoinLayout is the resolved shape of an equi-join: the output schema (left
// columns, then kept right columns with collision suffixes), the join-column
// indexes on each side, and the indexes of the right columns that survive
// into the output. It is shared by the streaming join, the nested-loop join
// and the planner so they agree byte-for-byte on naming and order.
type JoinLayout struct {
	Schema    Schema
	Left      []int // left join-column indexes, aligned with `on`
	Right     []int // right join-column indexes, aligned with `on`
	RightKeep []int // right columns kept in the output, in schema order
}

// NewJoinLayout resolves the join columns and output schema for joining the
// named left and right schemas. Right join columns are dropped from the
// output; remaining right columns that clash with an output name so far are
// suffixed with "_r" (repeatedly, until unique).
func NewJoinLayout(lname string, l Schema, rname string, r Schema, on ...JoinPair) (JoinLayout, error) {
	if len(on) == 0 {
		return JoinLayout{}, fmt.Errorf("relation: join needs at least one column pair")
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for k, p := range on {
		li[k] = l.IndexOf(p.Left)
		ri[k] = r.IndexOf(p.Right)
		if li[k] < 0 {
			return JoinLayout{}, fmt.Errorf("relation: join: left %q has no column %q", lname, p.Left)
		}
		if ri[k] < 0 {
			return JoinLayout{}, fmt.Errorf("relation: join: right %q has no column %q", rname, p.Right)
		}
	}
	dropRight := make(map[int]bool, len(on))
	for _, k := range ri {
		dropRight[k] = true
	}
	schema := l.Clone()
	var rightKeep []int
	for j, c := range r {
		if dropRight[j] {
			continue
		}
		name := c.Name
		for schema.Has(name) {
			name += "_r"
		}
		schema = append(schema, Column{Name: name, Kind: c.Kind})
		rightKeep = append(rightKeep, j)
	}
	return JoinLayout{Schema: schema, Left: li, Right: ri, RightKeep: rightKeep}, nil
}

// buildRow is one hash-table entry: a right row's kept-column projection and
// its ordinal in the right stream.
type buildRow struct {
	proj []Value
	ord  int
}

type hashJoinIter struct {
	left, right Iter
	layout      JoinLayout
	outName     string
	built       bool
	table       map[string][]buildRow // join key → build rows, build order
	lrow        []Value               // current probe row
	lseen       int                   // left rows pulled; lrow is the last
	pending     []buildRow            // its matches
	pi          int
	keyBuf      []byte
	emitted     int
	err         error
	closed      bool
}

// NewHashJoin streams the inner equi-join of l and r on the given column
// pairs. The right side is drained once into a pre-sized hash table holding
// only the kept-right column projections; left rows are then probed lazily
// in order, so output order matches the eager HashJoin exactly. lname and
// rname feed error messages and the maxJoinRows guard's output name.
func NewHashJoin(l, r Iter, lname, rname string, on ...JoinPair) (Iter, error) {
	layout, err := NewJoinLayout(lname, l.Schema(), rname, r.Schema(), on...)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{left: l, right: r, layout: layout, outName: lname + "⋈" + rname}, nil
}

func (j *hashJoinIter) build() {
	j.built = true
	j.table = make(map[string][]buildRow, sizeHintOf(j.right))
	for ord := 0; ; ord++ {
		rrow, ok := j.right.Next()
		if !ok {
			j.err = IterErr(j.right)
			return
		}
		if nullAt(rrow, j.layout.Right) {
			continue
		}
		j.keyBuf = AppendRowKey(j.keyBuf[:0], rrow, j.layout.Right)
		proj := make([]Value, len(j.layout.RightKeep))
		for i, k := range j.layout.RightKeep {
			proj[i] = rrow[k]
		}
		k := string(j.keyBuf)
		j.table[k] = append(j.table[k], buildRow{proj: proj, ord: ord})
	}
}

func (j *hashJoinIter) Next() ([]Value, bool) {
	if j.err != nil {
		return nil, false
	}
	if !j.built {
		j.build()
		if j.err != nil {
			return nil, false
		}
	}
	for {
		if j.pi < len(j.pending) {
			if j.emitted >= maxJoinRows {
				j.err = fmt.Errorf("relation: join %s would exceed %d rows", j.outName, maxJoinRows)
				return nil, false
			}
			proj := j.pending[j.pi].proj
			j.pi++
			nr := make([]Value, 0, len(j.layout.Schema))
			nr = append(nr, j.lrow...)
			nr = append(nr, proj...)
			j.emitted++
			return nr, true
		}
		lrow, ok := j.left.Next()
		if !ok {
			j.err = IterErr(j.left)
			return nil, false
		}
		j.lseen++
		if nullAt(lrow, j.layout.Left) {
			continue
		}
		j.keyBuf = AppendRowKey(j.keyBuf[:0], lrow, j.layout.Left)
		matches := j.table[string(j.keyBuf)]
		if len(matches) == 0 {
			continue
		}
		j.lrow = lrow
		j.pending = matches
		j.pi = 0
	}
}

func (j *hashJoinIter) Schema() Schema { return j.layout.Schema }
func (j *hashJoinIter) Err() error     { return j.err }
func (j *hashJoinIter) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.left.Close()
	j.right.Close()
	j.table = nil
}

// JoinOrigin reports, right after a NewHashJoin iterator's Next returned a
// row, where that row came from: left is its left row's ordinal in the left
// stream, right its right row's ordinal in the right stream, both counting
// the null-keyed rows the join skipped. ok is false for any other iterator
// and before the first row. Lineage tracking (internal/provenance) rides on
// it instead of a join of its own.
func JoinOrigin(it Iter) (left, right int, ok bool) {
	j, isJoin := it.(*hashJoinIter)
	if !isJoin || j.pi == 0 {
		return 0, 0, false
	}
	return j.lseen - 1, j.pending[j.pi-1].ord, true
}
