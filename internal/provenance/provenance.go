// Package provenance tracks why-provenance for mashups: every row of a
// mashup carries the set of source rows (dataset, row index) that produced
// it. The revenue sharing function (paper §3.2.3) "reverse engineers" the
// arbiter's combination function f(); for relational plans this package makes
// that reverse engineering exact by propagating lineage through every
// operator, in the spirit of provenance semirings.
//
// Lineage is a side array: an Annotated is a relation produced by
// internal/relation's own operators plus one Lineage per row. Project, Map
// and Rename are 1:1, so their output reuses the input's lineage slice; the
// join reads each output row's input ordinals off relation's hash join
// (relation.JoinOrigin) and merges the two rows' lineages. There is one join
// and one operator set in the market, and it lives in internal/relation.
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
// changes an Annotated's Lineage afterwards (Project, Map and Rename share
// their input's slice), and callers must not either — Datasets memoizes what
// it finds there.
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

// lift pairs the output of one of relation's 1:1 operators over a.Rel with
// a's lineage: output row i came from input row i alone.
func lift(a *Annotated, rel *relation.Relation, err error) (*Annotated, error) {
	a.check()
	if err != nil {
		return nil, err
	}
	return &Annotated{Rel: rel, Lineage: a.Lineage}, nil
}

// Project keeps the named columns; lineage is unchanged (why-provenance of a
// projected row is the provenance of the original row).
func Project(a *Annotated, names ...string) (*Annotated, error) {
	rel, err := relation.Project(a.Rel, names...)
	return lift(a, rel, err)
}

// Map applies a column transformation, keeping lineage.
func Map(a *Annotated, col string, kind relation.Kind, fn func(relation.Value) relation.Value) (*Annotated, error) {
	rel, err := relation.Map(a.Rel, col, kind, fn)
	return lift(a, rel, err)
}

// Rename renames a column, keeping lineage.
func Rename(a *Annotated, old, new string) (*Annotated, error) {
	rel, err := relation.Rename(a.Rel, old, new)
	return lift(a, rel, err)
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

// RowsWithin counts the rows whose lineage lies wholly inside the allowed
// dataset set: the size of the counterfactual mashup ("what would the mashup
// be without seller X?") the arbiter values coalitions by when computing
// Shapley revenue allocations.
func (a *Annotated) RowsWithin(allowed map[string]bool) int {
	a.check()
	n := 0
rows:
	for _, lin := range a.Lineage {
		for _, ref := range lin {
			if !allowed[ref.Dataset] {
				continue rows
			}
		}
		n++
	}
	return n
}
