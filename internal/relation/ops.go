package relation

import "fmt"

// Predicate decides whether a row qualifies. The row slice must not be
// retained.
type Predicate func(row []Value, schema Schema) bool

// The eager operators below are thin Materialize(op(...)) wrappers over the
// streaming iterators in iter.go; they keep the historical names, result
// naming, and error text so existing callers (and replayed WALs) see
// byte-identical results.

// Select returns the rows of r satisfying pred, preserving order.
func Select(r *Relation, pred Predicate) *Relation {
	out, _ := Materialize(NewSelect(NewScan(r), pred))
	out.Name = r.Name + "_sel"
	return out
}

// Project returns r restricted to the named columns, in order.
func Project(r *Relation, names ...string) (*Relation, error) {
	it, err := NewProject(NewScan(r), names...)
	if err != nil {
		return nil, err
	}
	out, err := Materialize(it)
	if err != nil {
		return nil, err
	}
	out.Name = r.Name + "_proj"
	return out, nil
}

// Rename returns r with column old renamed to new. The result owns its own
// row slice (historically it aliased the source's, so appending through the
// result could clobber the source relation).
func Rename(r *Relation, old, new string) (*Relation, error) {
	it, err := NewRename(NewScan(r), old, new)
	if err != nil {
		return nil, fmt.Errorf("relation %q: %w", r.Name, err)
	}
	out, _ := Materialize(it)
	out.Name = r.Name
	return out, nil
}

// Limit returns the first n rows of r. The result owns its own row slice
// (historically it sliced the source's backing array, so appending through
// the result could clobber the source's later rows).
func Limit(r *Relation, n int) *Relation {
	out, _ := Materialize(NewLimit(NewScan(r), n))
	out.Name = r.Name + "_lim"
	return out
}

// JoinPair names the join columns on each side of a join.
type JoinPair struct {
	Left, Right string
}

// HashJoin performs an inner equi-join of l and r on the given column pairs
// using a hash table built on the right side. Right join columns are dropped
// from the output; remaining right columns that clash with left names are
// suffixed with "_r".
func HashJoin(l, r *Relation, on ...JoinPair) (*Relation, error) {
	it, err := NewHashJoin(NewScan(l), NewScan(r), l.Name, r.Name, on...)
	if err != nil {
		return nil, err
	}
	out, err := Materialize(it)
	if err != nil {
		return nil, err
	}
	out.Name = l.Name + "⋈" + r.Name
	return out, nil
}

// maxJoinRows guards against runaway join outputs (e.g. joining on a
// low-cardinality column): rather than exhaust memory, the join fails and
// the DoD engine drops the candidate plan.
const maxJoinRows = 4_000_000

// NestedLoopJoin is the O(n·m) baseline join: HashJoin's reference
// implementation in the equivalence tests and the join ablation benchmark.
func NestedLoopJoin(l, r *Relation, on ...JoinPair) (*Relation, error) {
	layout, err := NewJoinLayout(l.Name, l.Schema, r.Name, r.Schema, on...)
	if err != nil {
		return nil, err
	}
	out := &Relation{Name: l.Name + "⋈" + r.Name, Schema: layout.Schema.Clone()}
	for _, lrow := range l.Rows {
		for _, rrow := range r.Rows {
			match := true
			for k := range layout.Left {
				lv, rv := lrow[layout.Left[k]], rrow[layout.Right[k]]
				if lv.IsNull() || rv.IsNull() || !lv.Equal(rv) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if len(out.Rows) >= maxJoinRows {
				return nil, fmt.Errorf("relation: join %s would exceed %d rows", out.Name, maxJoinRows)
			}
			nr := make([]Value, 0, len(layout.Schema))
			nr = append(nr, lrow...)
			for _, j := range layout.RightKeep {
				nr = append(nr, rrow[j])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// Map applies fn to the named column, returning a new relation with the
// column's values replaced and (optionally) its kind changed. The Mashup
// Builder uses Map to apply inferred transformation functions such as the
// inverse of f(d) (paper §1 Challenge-3).
func Map(r *Relation, name string, newKind Kind, fn func(Value) Value) (*Relation, error) {
	it, err := NewMap(NewScan(r), name, newKind, fn)
	if err != nil {
		return nil, fmt.Errorf("relation %q: no column %q", r.Name, name)
	}
	out, _ := Materialize(it)
	out.Name = r.Name
	return out, nil
}

// AddColumn appends a computed column.
func AddColumn(r *Relation, col Column, fn func(row []Value, schema Schema) Value) *Relation {
	out, _ := Materialize(NewAddColumn(NewScan(r), col, fn))
	out.Name = r.Name
	return out
}
