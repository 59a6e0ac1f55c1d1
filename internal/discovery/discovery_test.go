package discovery

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/relation"
)

func mkEngine() *Engine {
	orders := relation.New("orders", relation.NewSchema(
		relation.Col("order_id", relation.KindInt),
		relation.Col("cust_id", relation.KindInt),
		relation.Col("total", relation.KindFloat),
	))
	customers := relation.New("customers", relation.NewSchema(
		relation.Col("cust_id", relation.KindInt),
		relation.Col("customer_name", relation.KindString),
	))
	for i := 0; i < 100; i++ {
		orders.MustAppend(relation.Int(int64(i)), relation.Int(int64(i%40)), relation.Float(float64(i)))
	}
	for i := 0; i < 40; i++ {
		customers.MustAppend(relation.Int(int64(i)), relation.String_(fmt.Sprintf("name%d", i)))
	}
	ix := index.Build(index.DefaultConfig(), []*profile.DatasetProfile{
		profile.Profile("orders", orders),
		profile.Profile("customers", customers),
	})
	return New(ix)
}

func TestSearchColumns(t *testing.T) {
	e := mkEngine()
	hits := e.SearchColumns("customer")
	if len(hits) == 0 {
		t.Fatal("no hits for 'customer'")
	}
	if hits[0].Ref.Dataset != "customers" {
		t.Errorf("top hit = %v", hits[0])
	}
	if len(e.SearchColumns()) != 0 {
		t.Error("empty keywords return nothing")
	}
	multi := e.SearchColumns("order", "total")
	if len(multi) < 2 {
		t.Errorf("multi-keyword hits = %v", multi)
	}
	for _, h := range multi {
		if h.Score <= 0 || h.Score > 1 {
			t.Errorf("score out of range: %v", h)
		}
	}
}
