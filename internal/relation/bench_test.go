package relation

import (
	"bytes"
	"fmt"
	"testing"
)

func mkBenchRel(n int) *Relation {
	r := New("bench", NewSchema(
		Col("k", KindInt), Col("cat", KindString), Col("v", KindFloat)))
	for i := 0; i < n; i++ {
		r.MustAppend(Int(int64(i)), String_(fmt.Sprintf("c%d", i%10)), Float(float64(i)*0.5))
	}
	return r
}

func BenchmarkHashJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		l, r := mkBenchRel(n), mkBenchRel(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HashJoin(l, r, JoinPair{"k", "k"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	r := mkBenchRel(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCSV("bench", &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueKey(b *testing.B) {
	vals := []Value{Int(42), Float(3.14), String_("hello"), Bool(true)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			_ = v.Key()
		}
	}
}

// pipelineInputs builds the transform-chain workload shared by the eager and
// streaming pipeline benches: select (2/3 pass) → map → project.
func pipelineInputs(n int) *Relation { return mkBenchRel(n) }

func pipelinePred(row []Value, s Schema) bool {
	return !row[0].IsNull() && row[0].AsInt()%3 != 0
}

func pipelineFn(v Value) Value {
	if v.IsNull() {
		return v
	}
	return Float(v.AsFloat() * 2)
}

// BenchmarkPipelineEager chains the eager operators: every stage materializes
// an intermediate relation. This is the pre-refactor execution shape.
func BenchmarkPipelineEager(b *testing.B) {
	r := pipelineInputs(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Select(r, pipelinePred)
		m, err := Map(s, "v", KindFloat, pipelineFn)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Project(m, "k", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStreaming fuses the same stages into one iterator pipeline
// with a single materialization at the end.
func BenchmarkPipelineStreaming(b *testing.B) {
	r := pipelineInputs(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := NewSelect(NewScan(r), pipelinePred)
		it, err := NewMap(it, "v", KindFloat, pipelineFn)
		if err != nil {
			b.Fatal(err)
		}
		it, err = NewProject(it, "k", "v")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Materialize(it); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProjectEager joins then projects eagerly: the join materializes
// every column of both sides before the projection narrows them.
func BenchmarkJoinProjectEager(b *testing.B) {
	l, r := mkBenchRel(5000), mkBenchRel(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := HashJoin(l, r, JoinPair{"k", "k"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Project(j, "k", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProjectStreaming runs the same query as one iterator
// pipeline: the join streams into the projection, and only the projected rows
// materialize.
func BenchmarkJoinProjectStreaming(b *testing.B) {
	l, r := mkBenchRel(5000), mkBenchRel(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, err := NewHashJoin(NewScan(l), NewScan(r), l.Name, r.Name, JoinPair{"k", "k"})
		if err != nil {
			b.Fatal(err)
		}
		it, err = NewProject(it, "k", "v")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Materialize(it); err != nil {
			b.Fatal(err)
		}
	}
}
