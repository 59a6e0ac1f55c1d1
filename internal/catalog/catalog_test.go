package catalog

import (
	"sync"
	"testing"

	"repro/internal/relation"
)

func rel(name string, n int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(relation.Col("k", relation.KindInt)))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Int(int64(i)))
	}
	return r
}

func TestRegisterGet(t *testing.T) {
	c := New()
	if err := c.Register("d1", "seller1", rel("orders", 3), "sales"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("rows = %d", got.NumRows())
	}
	if c.Owner("d1") != "seller1" {
		t.Errorf("owner = %q", c.Owner("d1"))
	}
	if err := c.Register("d1", "x", rel("dup", 1)); err == nil {
		t.Error("duplicate ID must fail")
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("unknown ID must fail")
	}
}

func TestRegisterValidates(t *testing.T) {
	c := New()
	bad := &relation.Relation{Name: "b", Schema: relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("a", relation.KindInt))}
	if err := c.Register("d", "s", bad); err == nil {
		t.Error("invalid relation must be rejected")
	}
}

func TestVersioning(t *testing.T) {
	c := New()
	if err := c.Register("d1", "s", rel("r", 2)); err != nil {
		t.Fatal(err)
	}
	v, err := c.Update("d1", rel("r", 5), "grew")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
	cur, _ := c.Get("d1")
	if cur.NumRows() != 5 {
		t.Errorf("current rows = %d", cur.NumRows())
	}
	e, _ := c.Entry("d1")
	if len(e.History()) != 2 {
		t.Fatalf("history len = %d", len(e.History()))
	}
	if old := e.History()[0]; old.Version != 1 || old.Rel.NumRows() != 2 {
		t.Errorf("v1 = version %d, %d rows", old.Version, old.Rel.NumRows())
	}
	if _, err := c.Update("ghost", rel("r", 1), ""); err == nil {
		t.Error("update of unregistered dataset must fail")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := New()
	src := rel("r", 2)
	if err := c.Register("d1", "s", src); err != nil {
		t.Fatal(err)
	}
	src.MustAppend(relation.Int(99)) // mutate after registration
	got, _ := c.Get("d1")
	if got.NumRows() != 2 {
		t.Error("catalog must snapshot (clone) relations on register")
	}
}

func TestListing(t *testing.T) {
	c := New()
	_ = c.Register("b", "s2", rel("r", 1))
	_ = c.Register("a", "s1", rel("r", 1))
	_ = c.Register("c", "s1", rel("r", 1))
	ids := c.IDs()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Errorf("IDs = %v", ids)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

// TestConcurrentAccess exercises the catalog under parallel readers/writers
// (the always-on metadata engine serves both, §5.1).
func TestConcurrentAccess(t *testing.T) {
	c := New()
	if err := c.Register("d", "s", rel("r", 10)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if _, err := c.Get("d"); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Update("d", rel("r", 10+i), "upd"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	e, _ := c.Entry("d")
	if len(e.History()) != 1+4*50 {
		t.Errorf("history = %d, want 201", len(e.History()))
	}
}
