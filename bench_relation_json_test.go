package repro

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/relation"
)

// relationBenchResult is one row of BENCH_relation.json: a pipeline shape run
// eager (materialize per stage) and streaming (one fused materialization),
// with throughput and allocation rates for each.
type relationBenchResult struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	NsPerOp     int64   `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func runRelationBench(name string, rows int, fn func() int) relationBenchResult {
	var out int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = fn()
		}
	})
	return relationBenchResult{
		Name:        name,
		Rows:        out,
		NsPerOp:     res.NsPerOp(),
		RowsPerSec:  float64(rows) * float64(time.Second) / float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// TestWriteBenchRelationJSON regenerates BENCH_relation.json, the
// eager-vs-streaming relation engine comparison artifact. Gated on the same
// switch as BENCH_engine.json so `BENCH_JSON=1 go test` produces both.
func TestWriteBenchRelationJSON(t *testing.T) {
	if !benchJSONOn() {
		t.Skip("set -benchjson or BENCH_JSON to write BENCH_relation.json")
	}
	const n = 20000
	src := relation.New("bench", relation.NewSchema(
		relation.Col("k", relation.KindInt),
		relation.Col("cat", relation.KindString),
		relation.Col("v", relation.KindFloat)))
	for i := 0; i < n; i++ {
		src.MustAppend(relation.Int(int64(i)),
			relation.String_([]string{"c0", "c1", "c2", "c3"}[i%4]),
			relation.Float(float64(i)*0.5))
	}
	pred := func(row []relation.Value, s relation.Schema) bool {
		return !row[0].IsNull() && row[0].AsInt()%3 != 0
	}
	double := func(v relation.Value) relation.Value {
		if v.IsNull() {
			return v
		}
		return relation.Float(v.AsFloat() * 2)
	}

	results := []relationBenchResult{
		runRelationBench("transform-chain/eager", n, func() int {
			s := relation.Select(src, pred)
			m, err := relation.Map(s, "v", relation.KindFloat, double)
			if err != nil {
				t.Fatal(err)
			}
			p, err := relation.Project(m, "k", "v")
			if err != nil {
				t.Fatal(err)
			}
			return p.NumRows()
		}),
		runRelationBench("transform-chain/streaming", n, func() int {
			it := relation.NewSelect(relation.NewScan(src), pred)
			it, err := relation.NewMap(it, "v", relation.KindFloat, double)
			if err != nil {
				t.Fatal(err)
			}
			it, err = relation.NewProject(it, "k", "v")
			if err != nil {
				t.Fatal(err)
			}
			out, err := relation.Materialize(it)
			if err != nil {
				t.Fatal(err)
			}
			return out.NumRows()
		}),
		runRelationBench("join-project/eager", n, func() int {
			j, err := relation.HashJoin(src, src, relation.JoinPair{Left: "k", Right: "k"})
			if err != nil {
				t.Fatal(err)
			}
			p, err := relation.Project(j, "k", "v")
			if err != nil {
				t.Fatal(err)
			}
			return p.NumRows()
		}),
		runRelationBench("join-project/streaming", n, func() int {
			it, err := relation.NewHashJoin(relation.NewScan(src), relation.NewScan(src), src.Name, src.Name,
				relation.JoinPair{Left: "k", Right: "k"})
			if err != nil {
				t.Fatal(err)
			}
			it, err = relation.NewProject(it, "k", "v")
			if err != nil {
				t.Fatal(err)
			}
			out, err := relation.Materialize(it)
			if err != nil {
				t.Fatal(err)
			}
			return out.NumRows()
		}),
	}

	doc := struct {
		Benchmark string                `json:"benchmark"`
		Generated string                `json:"generated"`
		Results   []relationBenchResult `json:"results"`
	}{
		Benchmark: "RelationEngine",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Results:   results,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_relation.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
