// Package provenance is why-provenance for one hash join: every output row
// carries the set of source rows (dataset, row index) that produced it. The
// market itself no longer reads lineage. Every plan the DoD engine builds is
// a chain of inner joins over distinct datasets, so a mashup's dataset list
// already says which sellers each of its rows needs (see
// dod.Candidate.Datasets and market.AllOf). What remains here is the
// lineage-carrying join that bench/probe times as provenance.join_ms.
//
// Lineage is a side array: an Annotated is a relation plus one Lineage per
// row. The join reads each output row's input ordinals off relation's hash
// join (relation.JoinOrigin) and merges the two rows' lineages.
package provenance

import (
	"fmt"
	"sort"

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

// Annotated is a relation whose rows each carry lineage.
type Annotated struct {
	Rel     *relation.Relation
	Lineage []Lineage // parallel to Rel.Rows
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

// HashJoin joins two annotated relations with relation's hash join; each
// output row's lineage is the union of the joined input rows' lineages.
func HashJoin(l, r *Annotated, on ...relation.JoinPair) (*Annotated, error) {
	l.check()
	r.check()
	it, err := relation.NewHashJoin(relation.NewScan(l.Rel), relation.NewScan(r.Rel), l.Rel.Name, r.Rel.Name, on...)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := &Annotated{Rel: &relation.Relation{Name: l.Rel.Name + "⋈" + r.Rel.Name, Schema: it.Schema().Clone()}}
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		li, ri, _ := relation.JoinOrigin(it)
		out.Rel.Rows = append(out.Rel.Rows, row)
		out.Lineage = append(out.Lineage, merge(l.Lineage[li], r.Lineage[ri]))
	}
	if err := relation.IterErr(it); err != nil {
		return nil, err
	}
	relation.RecordMaterialization(out.Rel.NumRows())
	return out, nil
}
