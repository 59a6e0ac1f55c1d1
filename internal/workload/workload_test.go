package workload

import (
	"testing"

	"repro/internal/mltask"
	"repro/internal/relation"
)

func TestPaperExampleShapes(t *testing.T) {
	ex := NewPaperExample(100, 1)
	if ex.S1.NumRows() != 100 || ex.S2.NumRows() != 100 || ex.S3.NumRows() != 100 {
		t.Fatal("row counts")
	}
	wantCols := map[string][]string{
		"s1": {"a", "b", "c"}, "s2": {"a", "b_prime", "f_of_temp"}, "s3": {"a", "e"},
	}
	for name, cols := range wantCols {
		var r *relation.Relation
		switch name {
		case "s1":
			r = ex.S1
		case "s2":
			r = ex.S2
		case "s3":
			r = ex.S3
		}
		for _, c := range cols {
			if !r.Schema.Has(c) {
				t.Errorf("%s lacks %s", name, c)
			}
		}
	}
	// f_of_temp = d*1.8+32.
	d0, _ := ex.Truth.Cell(0, "d")
	f0, _ := ex.S2.Cell(0, "f_of_temp")
	if got := d0.AsFloat()*1.8 + 32; got != f0.AsFloat() {
		t.Errorf("f(d) mismatch: %v vs %v", got, f0.AsFloat())
	}
}

func TestPaperExampleDeterministic(t *testing.T) {
	a := NewPaperExample(50, 9)
	b := NewPaperExample(50, 9)
	if !a.S1.Equal(b.S1) || !a.S2.Equal(b.S2) {
		t.Error("same seed must generate identical data")
	}
}

func TestEnterpriseSilos(t *testing.T) {
	silos := EnterpriseSilos(3, 2, 50, 5)
	if len(silos) != 3 {
		t.Fatal("silo count")
	}
	for _, s := range silos {
		if len(s.Datasets) != 2 {
			t.Errorf("%s datasets = %d", s.Owner, len(s.Datasets))
		}
		for _, d := range s.Datasets {
			if !d.Schema.Has("entity_id") {
				t.Error("silo tables must share the entity key")
			}
			if d.NumRows() != 50 {
				t.Errorf("rows = %d", d.NumRows())
			}
			// entity_id unique within a table (profiling should see a key).
			ids := map[int64]bool{}
			for _, row := range d.Rows {
				id := row[0].AsInt()
				if ids[id] {
					t.Error("duplicate entity_id within one table")
				}
				ids[id] = true
			}
		}
	}
}

func TestWeatherSources(t *testing.T) {
	rels, truth, bad := WeatherSources(4, 60, 6)
	if len(rels) != 4 || len(truth) != 60 || bad == "" {
		t.Fatal("shape")
	}
	// The bad source deviates from truth far more often than good ones.
	devs := make([]int, 4)
	for si, r := range rels {
		for d := 0; d < 60; d++ {
			v, _ := r.Cell(d, "temp")
			if diff := v.AsFloat() - truth[d]; diff > 1 || diff < -1 {
				devs[si]++
			}
		}
	}
	badIdx := len(rels) - 1
	for i := 0; i < badIdx; i++ {
		if devs[i] >= devs[badIdx] {
			t.Errorf("good source %d deviates %d >= bad %d", i, devs[i], devs[badIdx])
		}
	}
}

func TestPIITable(t *testing.T) {
	r := PIITable(200, 7)
	if r.NumRows() != 200 {
		t.Fatal("rows")
	}
	for _, c := range []string{"name", "age", "zip", "salary", "quit"} {
		if !r.Schema.Has(c) {
			t.Errorf("missing %s", c)
		}
	}
	// quit is predictable from salary (signal for E7).
	task := mltask.ClassifierTask{Features: []string{"salary", "age"}, Label: "quit",
		Model: mltask.ModelLogistic, Seed: 8}
	acc, err := task.Evaluate(r)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Errorf("PII table signal too weak: %v", acc)
	}
}

func TestLakeTables(t *testing.T) {
	tables := LakeTables(20, 30, 8)
	if len(tables) != 20 {
		t.Fatal("count")
	}
	// Tables in the same cluster share a key column name.
	if tables[0].Schema[0].Name != tables[3].Schema[0].Name {
		t.Error("cluster members must share key columns")
	}
}
