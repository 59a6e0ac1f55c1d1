package provenance

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// lineageSource is a 2,000-row source over 1,500 join keys, so some keys
// repeat on each side and the join fans out.
func lineageSource(name string, stride int) *Annotated {
	r := relation.New(name, relation.NewSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("v", relation.KindFloat),
		relation.Col(name+"_tag", relation.KindString),
	))
	for i := 0; i < 2000; i++ {
		r.MustAppend(relation.Int(int64(i*stride%1500)), relation.Float(float64(i)/4), relation.String_(fmt.Sprintf("t%d", i%7)))
	}
	return FromSource(name, r)
}

// BenchmarkLineageChain is a DoD build's operator chain on lineage-carrying
// relations: join two sources, map a column, rename it, project the result.
func BenchmarkLineageChain(b *testing.B) {
	l, r := lineageSource("l", 1), lineageSource("r", 7)
	double := func(v relation.Value) relation.Value { return relation.Float(v.AsFloat() * 2) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"})
		if err != nil {
			b.Fatal(err)
		}
		m, err := Map(j, "v_r", relation.KindFloat, double)
		if err != nil {
			b.Fatal(err)
		}
		rn, err := Rename(m, "v_r", "w")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Project(rn, "k", "w", "l_tag"); err != nil {
			b.Fatal(err)
		}
	}
}
