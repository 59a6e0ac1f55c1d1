package profile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func mkRel() *relation.Relation {
	r := relation.New("t", relation.NewSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("city", relation.KindString),
		relation.Col("temp", relation.KindFloat),
	))
	cities := []string{"chi", "nyc", "chi", "sf", "chi"}
	temps := []float64{10, 20, 12, 18, 0}
	for i := 0; i < 5; i++ {
		tv := relation.Float(temps[i])
		if i == 4 {
			tv = relation.Null()
		}
		r.MustAppend(relation.Int(int64(i)), relation.String_(cities[i]), tv)
	}
	return r
}

func TestProfileBasics(t *testing.T) {
	dp := Profile("d1", mkRel())
	if dp.RowCount != 5 {
		t.Errorf("rows = %d", dp.RowCount)
	}
	id := dp.Column("id")
	if id == nil {
		t.Fatal("missing id profile")
	}
	if id.Distinct != 5 {
		t.Errorf("id: distinct=%d", id.Distinct)
	}
	city := dp.Column("city")
	if city.Distinct != 3 {
		t.Errorf("city: distinct=%d", city.Distinct)
	}
	temp := dp.Column("temp")
	if temp.NullCount != 1 {
		t.Errorf("temp nulls = %d", temp.NullCount)
	}
	if temp.Min != 10 || temp.Max != 20 {
		t.Errorf("temp range [%v,%v]", temp.Min, temp.Max)
	}
	if math.Abs(temp.Mean-15) > 1e-9 {
		t.Errorf("temp mean = %v", temp.Mean)
	}
	if len(city.TopValues) == 0 || city.TopValues[0] != "chi" {
		t.Errorf("top values = %v", city.TopValues)
	}
	if dp.Column("missing") != nil {
		t.Error("unknown column must be nil")
	}
}

func TestMinHashIdentical(t *testing.T) {
	a, b := NewMinHash(), NewMinHash()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("v%d", i)
		a.Add(k)
		b.Add(k)
	}
	if j := a.Jaccard(&b); j != 1 {
		t.Errorf("identical sets jaccard = %v, want 1", j)
	}
}

func TestMinHashDisjoint(t *testing.T) {
	a, b := NewMinHash(), NewMinHash()
	for i := 0; i < 100; i++ {
		a.Add(fmt.Sprintf("a%d", i))
		b.Add(fmt.Sprintf("b%d", i))
	}
	if j := a.Jaccard(&b); j > 0.15 {
		t.Errorf("disjoint sets jaccard = %v, want ~0", j)
	}
}

func TestMinHashOverlapEstimate(t *testing.T) {
	a, b := NewMinHash(), NewMinHash()
	// 50% overlap: a = 0..199, b = 100..299 → jaccard = 100/300 ≈ 0.33
	for i := 0; i < 200; i++ {
		a.Add(fmt.Sprintf("v%d", i))
	}
	for i := 100; i < 300; i++ {
		b.Add(fmt.Sprintf("v%d", i))
	}
	j := a.Jaccard(&b)
	if j < 0.15 || j > 0.55 {
		t.Errorf("estimated jaccard = %v, want ~0.33", j)
	}
}

func TestEmptyMinHash(t *testing.T) {
	a, b := NewMinHash(), NewMinHash()
	if a.Jaccard(&b) != 0 {
		t.Error("two empty sketches estimate 0")
	}
	b.Add("x")
	if a.Jaccard(&b) != 0 {
		t.Error("empty vs non-empty estimates 0")
	}
}

func TestContainmentEstimate(t *testing.T) {
	// a ⊂ b: containment of a in b should be high.
	sub := relation.New("sub", relation.NewSchema(relation.Col("k", relation.KindInt)))
	sup := relation.New("sup", relation.NewSchema(relation.Col("k", relation.KindInt)))
	for i := 0; i < 50; i++ {
		sub.MustAppend(relation.Int(int64(i)))
	}
	for i := 0; i < 200; i++ {
		sup.MustAppend(relation.Int(int64(i)))
	}
	pa := Profile("a", sub).Column("k")
	pb := Profile("b", sup).Column("k")
	if c := ContainmentEstimate(pa, pb, pa.Sketch.Jaccard(&pb.Sketch)); c < 0.5 {
		t.Errorf("containment of subset in superset = %v, want high", c)
	}
	if c := ContainmentEstimate(pb, pa, pb.Sketch.Jaccard(&pa.Sketch)); c > 0.6 {
		t.Errorf("containment of superset in subset = %v, want ~0.25", c)
	}
}

// Property: Jaccard is symmetric and within [0,1].
func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewMinHash(), NewMinHash()
		for _, x := range xs {
			a.Add(fmt.Sprint(x))
		}
		for _, y := range ys {
			b.Add(fmt.Sprint(y))
		}
		j1, j2 := a.Jaccard(&b), b.Jaccard(&a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// twoPassProfile is Profile as it was before it walked the rows once: a
// frequency map, then a second walk of the rows for every value's first
// display form and a sort of all distinct values (twoPassTopValues). It is
// the reference TestProfileMatchesTwoPass holds Profile to.
func twoPassProfile(datasetID string, r *relation.Relation) *DatasetProfile {
	dp := &DatasetProfile{Dataset: datasetID, RowCount: r.NumRows()}
	for ci, col := range r.Schema {
		cp := ColumnProfile{Dataset: datasetID, Column: col.Name, Kind: col.Kind, RowCount: r.NumRows(), Sketch: NewMinHash()}
		freq := map[string]int{}
		var sum, sumSq float64
		first := true
		for _, row := range r.Rows {
			v := row[ci]
			if v.IsNull() {
				cp.NullCount++
				continue
			}
			k := v.Key()
			if freq[k] == 0 {
				cp.Sketch.Add(k)
			}
			freq[k]++
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
		cp.Distinct = len(freq)
		if cp.NumCount > 0 {
			cp.Mean = sum / float64(cp.NumCount)
			variance := sumSq/float64(cp.NumCount) - cp.Mean*cp.Mean
			if variance < 0 {
				variance = 0
			}
			cp.Std = math.Sqrt(variance)
		}
		cp.TopValues = twoPassTopValues(freq, 8, r, ci)
		dp.Columns = append(dp.Columns, cp)
	}
	return dp
}

func twoPassTopValues(freq map[string]int, k int, r *relation.Relation, ci int) []string {
	disp := map[string]string{}
	for _, row := range r.Rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		key := v.Key()
		if _, ok := disp[key]; !ok {
			disp[key] = v.String()
		}
	}
	type kv struct {
		key string
		n   int
	}
	all := make([]kv, 0, len(freq))
	for key, n := range freq {
		all = append(all, kv{key, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = disp[e.key]
	}
	return out
}

// randomRelation draws a relation whose columns exercise what TopValues and
// the stats depend on: NULLs, an all-NULL column, values sharing a key but
// not a display form (ints past 2^53; the int and the float 1e18), a float
// column holding ints, value ranges narrow enough for frequency ties and
// wide enough for more than 8 distinct values, and empty relations.
func randomRelation(rng *rand.Rand) *relation.Relation {
	r := relation.New("r", relation.NewSchema(
		relation.Col("i", relation.KindInt),
		relation.Col("f", relation.KindFloat),
		relation.Col("s", relation.KindString),
		relation.Col("b", relation.KindBool),
		relation.Col("n", relation.KindInt), // all NULL
	))
	span := 1 + rng.Intn(20)
	for range rng.Intn(60) {
		maybeNull := func(v relation.Value) relation.Value {
			if rng.Intn(5) == 0 {
				return relation.Null()
			}
			return v
		}
		i := relation.Int(int64(rng.Intn(span) - span/2))
		f := relation.Float(float64(rng.Intn(span)) / 2)
		switch rng.Intn(6) {
		case 0: // beyond 2^53 distinct ints share a key but not a display form
			i = relation.Int(1<<53 + int64(rng.Intn(2)))
		case 1: // so do an int and a float of the same large value
			f = relation.Float(1e18)
		case 2:
			f = relation.Int(1e18)
		case 3:
			f = relation.Int(int64(rng.Intn(span)))
		}
		r.MustAppend(
			maybeNull(i),
			maybeNull(f),
			maybeNull(relation.String_(fmt.Sprintf("v%d", rng.Intn(span)))),
			maybeNull(relation.Bool(rng.Intn(2) == 0)),
			relation.Null(),
		)
	}
	return r
}

// TestProfileMatchesTwoPass: the one-pass Profile gives exactly what the
// two-pass one did — TopValues' order and display forms, Distinct, the stats
// and the Sketch — on random relations.
func TestProfileMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 300 {
		r := randomRelation(rng)
		got, want := Profile("d", r), twoPassProfile("d", r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d rows): one-pass profile differs:\n got %+v\nwant %+v", trial, r.NumRows(), got, want)
		}
	}
}
