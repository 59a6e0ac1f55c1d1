// Package profile implements the data-item profiling half of the metadata
// engine (paper §5.1). Each dataset is divided into data items — columns,
// rows, partial rows — and the Processor extracts signatures per item: value
// distributions, numeric statistics, MinHash sketches of content. The index
// builder (internal/index) consumes these profiles to materialize join paths
// and candidate mapping functions without re-reading raw data.
package profile

import (
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/relation"
)

// MinHashSize is the number of hash slots in a column sketch. 64 gives a
// standard error of about 1/sqrt(64) ≈ 12.5% on Jaccard estimates, enough to
// rank join candidates.
const MinHashSize = 64

// MinHash is a bottom-k style sketch over a column's distinct values.
type MinHash [MinHashSize]uint64

// emptyMark fills unused slots so empty columns estimate 0 similarity.
const emptyMark = math.MaxUint64

// NewMinHash returns a sketch with all slots empty.
func NewMinHash() MinHash {
	var m MinHash
	for i := range m {
		m[i] = emptyMark
	}
	return m
}

// Add folds a value key into the sketch.
func (m *MinHash) Add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	base := h.Sum64()
	for i := 0; i < MinHashSize; i++ {
		// Cheap family of hash functions: xorshift-mix of base with slot salt.
		x := base ^ (uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		if x < m[i] {
			m[i] = x
		}
	}
}

// Jaccard estimates the Jaccard similarity of the two underlying sets.
func (m *MinHash) Jaccard(o *MinHash) float64 {
	match := 0
	nonEmpty := 0
	for i := 0; i < MinHashSize; i++ {
		if m[i] == emptyMark && o[i] == emptyMark {
			continue
		}
		nonEmpty++
		if m[i] == o[i] {
			match++
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	return float64(match) / float64(nonEmpty)
}

// ColumnProfile is the signature of one column data item.
type ColumnProfile struct {
	Dataset   string
	Column    string
	Kind      relation.Kind
	RowCount  int
	NullCount int
	Distinct  int
	// Numeric stats (valid when Kind is int/float and NumCount > 0).
	NumCount int
	Min      float64
	Max      float64
	Mean     float64
	Std      float64
	// Content sketch over distinct value keys.
	Sketch MinHash
	// TopValues holds up to 8 most frequent values (for display/debug).
	TopValues []string
}

// DatasetProfile aggregates the column profiles of one dataset.
type DatasetProfile struct {
	Dataset  string
	RowCount int
	Columns  []ColumnProfile
}

// Column returns the profile of the named column, or nil.
func (d *DatasetProfile) Column(name string) *ColumnProfile {
	for i := range d.Columns {
		if d.Columns[i].Column == name {
			return &d.Columns[i]
		}
	}
	return nil
}

// valueCount is one distinct value of a column: its Key, how many rows hold
// it, and the first of them (whose display form TopValues shows).
type valueCount struct {
	key      string
	n, first int
}

// moreFrequent orders values for TopValues: by count, descending, then by key.
func moreFrequent(a, b *valueCount) bool {
	return a.n > b.n || a.n == b.n && a.key < b.key
}

// Profile computes the full dataset profile in one pass per column.
func Profile(datasetID string, r *relation.Relation) *DatasetProfile {
	dp := &DatasetProfile{Dataset: datasetID, RowCount: r.NumRows()}
	var buf []byte
	for ci, col := range r.Schema {
		cp := ColumnProfile{
			Dataset:  datasetID,
			Column:   col.Name,
			Kind:     col.Kind,
			RowCount: r.NumRows(),
			Sketch:   NewMinHash(),
		}
		at := map[string]int{} // key -> its entry in vals
		var vals []valueCount
		var sum, sumSq float64
		first := true
		for ri, row := range r.Rows {
			v := row[ci]
			if v.IsNull() {
				cp.NullCount++
				continue
			}
			buf = v.AppendKey(buf[:0])
			i, ok := at[string(buf)]
			if !ok {
				k := string(buf)
				i = len(vals)
				at[k] = i
				vals = append(vals, valueCount{key: k, first: ri})
				cp.Sketch.Add(k)
			}
			vals[i].n++
			if v.IsNumeric() {
				f := v.AsFloat()
				cp.NumCount++
				sum += f
				sumSq += f * f
				if first {
					cp.Min, cp.Max = f, f
					first = false
				} else {
					if f < cp.Min {
						cp.Min = f
					}
					if f > cp.Max {
						cp.Max = f
					}
				}
			}
		}
		cp.Distinct = len(vals)
		if cp.NumCount > 0 {
			cp.Mean = sum / float64(cp.NumCount)
			variance := sumSq/float64(cp.NumCount) - cp.Mean*cp.Mean
			if variance < 0 {
				variance = 0
			}
			cp.Std = math.Sqrt(variance)
		}
		cp.TopValues = topValues(vals, 8, r, ci)
		dp.Columns = append(dp.Columns, cp)
	}
	return dp
}

// topValues formats the k most frequent of a column's values, each in the
// display form of the first row holding it.
func topValues(vals []valueCount, k int, r *relation.Relation, ci int) []string {
	top := make([]valueCount, 0, k+1)
	for _, v := range vals {
		i := len(top)
		for i > 0 && moreFrequent(&v, &top[i-1]) {
			i--
		}
		if i == k {
			continue
		}
		top = slices.Insert(top, i, v)
		if len(top) > k {
			top = top[:k]
		}
	}
	out := make([]string, len(top))
	for i, v := range top {
		out[i] = r.Rows[v.first][ci].String()
	}
	return out
}

// ContainmentEstimate estimates |A∩B|/|A| (how much of column a's content is
// contained in b) from j, the Jaccard estimate a.Sketch.Jaccard(&b.Sketch),
// and the distinct counts. Join-path discovery ranks inclusion-dependency
// candidates with this.
func ContainmentEstimate(a, b *ColumnProfile, j float64) float64 {
	if a.Distinct == 0 || j == 0 {
		return 0
	}
	// |A∩B| = J·|A∪B| = J·(|A|+|B|)/(1+J)
	inter := j * float64(a.Distinct+b.Distinct) / (1 + j)
	c := inter / float64(a.Distinct)
	if c > 1 {
		c = 1
	}
	return c
}
