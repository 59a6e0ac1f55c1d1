package catalog

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/relation"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.Register("dept/sales", "alice", rel("sales", 5), "finance", "q3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("dept/sales", rel("sales", 8), "grew"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("weather", "bob", rel("weather", 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("loaded %d datasets", got.Len())
	}
	cur, err := got.Get("dept/sales")
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumRows() != 8 {
		t.Errorf("current version rows = %d, want 8", cur.NumRows())
	}
	e, _ := got.Entry("dept/sales")
	if old := e.History()[0].Rel; old.NumRows() != 5 {
		t.Errorf("v1 rows = %d, want 5", old.NumRows())
	}
	if e.Owner != "alice" || len(e.Tags) != 2 {
		t.Errorf("entry = %+v", e)
	}
	if e.History()[1].Comment != "grew" {
		t.Errorf("comment = %q", e.History()[1].Comment)
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing directory must fail")
	}
}

func TestVersionFileFlattensSeparators(t *testing.T) {
	f := versionFile("a/b\\c..d", 3)
	for _, bad := range []string{"/", "\\", ".."} {
		for i := 0; i+len(bad) <= len(f)-7; i++ { // allow the ".v3.csv" suffix dots
			if f[i:i+len(bad)] == bad {
				t.Fatalf("unsafe filename %q", f)
			}
		}
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
	_ = relation.Relation{}
}
