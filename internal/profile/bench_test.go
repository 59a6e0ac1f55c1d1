package profile

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

func mkBenchRel(rows int) *relation.Relation {
	r := relation.New("bench", relation.NewSchema(
		relation.Col("id", relation.KindInt),
		relation.Col("name", relation.KindString),
		relation.Col("score", relation.KindFloat),
	))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)),
			relation.String_(fmt.Sprintf("n%d", i%500)),
			relation.Float(float64(i%97)))
	}
	return r
}

func BenchmarkProfile(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		r := mkBenchRel(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Profile("bench", r)
			}
		})
	}
}

func BenchmarkMinHashAdd(b *testing.B) {
	m := NewMinHash()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add("value-key")
	}
}

func BenchmarkMinHashJaccard(b *testing.B) {
	x, y := NewMinHash(), NewMinHash()
	for i := 0; i < 200; i++ {
		x.Add(fmt.Sprint(i))
		y.Add(fmt.Sprint(i + 100))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Jaccard(&y)
	}
}
