package trust

import (
	"math"
	"testing"

	"repro/internal/relation"
)

func schema() relation.Schema {
	return relation.NewSchema(
		relation.Col("user", relation.KindString),
		relation.Col("steps", relation.KindInt),
	)
}

func rows(user string, n int) [][]relation.Value {
	out := make([][]relation.Value, n)
	for i := range out {
		out[i] = []relation.Value{relation.String_(user), relation.Int(int64(1000 + i))}
	}
	return out
}

func TestJoinPoolQuorum(t *testing.T) {
	tr, err := New("fittrust", schema(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Join("alice", rows("alice", 5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join("bob", rows("bob", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Pool(); err == nil {
		t.Error("below quorum must not pool")
	}
	if err := tr.Join("carol", rows("carol", 2)); err != nil {
		t.Fatal(err)
	}
	pool, err := tr.Pool()
	if err != nil {
		t.Fatal(err)
	}
	if pool.NumRows() != 10 {
		t.Errorf("pool rows = %d", pool.NumRows())
	}
	if len(tr.Members()) != 3 {
		t.Errorf("members = %v", tr.Members())
	}
	// Schema enforcement.
	if err := tr.Join("dave", [][]relation.Value{{relation.Int(1)}}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := tr.Join("", nil); err == nil {
		t.Error("empty member must fail")
	}
}

func TestSplits(t *testing.T) {
	tr, _ := New("t", schema(), 1)
	_ = tr.Join("alice", rows("alice", 8))
	_ = tr.Join("bob", rows("bob", 2))
	byRows := tr.SplitByRows(100)
	if byRows["alice"] != 80 || byRows["bob"] != 20 {
		t.Errorf("row split = %v", byRows)
	}
	var sum float64
	for _, v := range byRows {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("row split must conserve: %v", sum)
	}
	empty, _ := New("e", schema(), 1)
	if len(empty.SplitByRows(10)) != 0 {
		t.Error("empty trust splits nothing")
	}
}

func TestPoolIsolation(t *testing.T) {
	tr, _ := New("t", schema(), 1)
	_ = tr.Join("alice", rows("alice", 2))
	pool, _ := tr.Pool()
	pool.Rows[0][1] = relation.Int(-1)
	pool2, _ := tr.Pool()
	if pool2.Rows[0][1].AsInt() == -1 {
		t.Error("pool must be re-materialized; callers cannot mutate the trust")
	}
}
