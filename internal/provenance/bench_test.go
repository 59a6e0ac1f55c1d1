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

// BenchmarkLineageChain is the lineage-carrying join that bench/probe times
// as provenance.join_ms. The map, rename and projection that follow a join
// in a DoD build run on relation alone and carry no lineage.
func BenchmarkLineageChain(b *testing.B) {
	l, r := lineageSource("l", 1), lineageSource("r", 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashJoin(l, r, relation.JoinPair{Left: "k", Right: "k"}); err != nil {
			b.Fatal(err)
		}
	}
}
