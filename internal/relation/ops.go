package relation

// Operators are the streaming iterators in iter.go, composed into a pipeline
// and drained once by Materialize; this file holds what they share with the
// nested-loop reference join.

import "fmt"

// Predicate decides whether a row qualifies. The row slice must not be
// retained.
type Predicate func(row []Value, schema Schema) bool

// JoinPair names the join columns on each side of a join.
type JoinPair struct {
	Left, Right string
}

// maxJoinRows guards against runaway join outputs (e.g. joining on a
// low-cardinality column): rather than exhaust memory, the join fails and
// the DoD engine drops the candidate plan.
const maxJoinRows = 4_000_000

// NestedLoopJoin is the O(n·m) baseline join: the streaming hash join's
// reference implementation in the equivalence tests and the join ablation
// benchmark. It names its result l.Name+"⋈"+r.Name.
func NestedLoopJoin(l, r *Relation, on ...JoinPair) (*Relation, error) {
	layout, err := newJoinLayout(l.Name, l.Schema, r.Name, r.Schema, on...)
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
