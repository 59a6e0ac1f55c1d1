package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// fuzzCSV renders a relation through the package's own CSV codec so the seed
// corpus exercises exactly the wire shape ReadCSV accepts. KindMulti is
// excluded from generated corpora: ParseValue cannot round-trip it.
func fuzzCSV(r *Relation) string {
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// FuzzIterOps feeds arbitrary CSV through the streaming operators and checks
// they agree with the frozen legacy eager implementations on whatever
// relation parses. opByte selects the pipeline; n parameterizes Limit.
func FuzzIterOps(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for seed := 0; seed < 6; seed++ {
		r := randRel(rng, "fz", "k")
		f.Add(fuzzCSV(r), byte(seed), seed)
	}
	f.Add("k,v\nint,string\n1,a\n2,b\n1,a\n", byte(0), 1)
	f.Add("k\nint\n", byte(3), 0)
	f.Add("k,t\nint,time\n5,2024-01-02T03:04:05Z\n", byte(5), 2)
	f.Add("a,b\nstring,string\nx\x1f\x02y,z\nx,y\x1f\x02z\n", byte(6), 0)
	f.Add("a,b\nstring,string\nx;b=\x02y,\nx,y\n", byte(7), 0)

	f.Fuzz(func(t *testing.T, csv string, opByte byte, n int) {
		r, err := ReadCSV("fz", strings.NewReader(csv))
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			return
		}
		switch opByte % 8 {
		case 0:
			pred := func(row []Value, s Schema) bool { return !row[0].IsNull() }
			mustSameRel(t, "Select", Select(r, pred), legacySelect(r, pred))
		case 1:
			if len(r.Schema) == 0 {
				return
			}
			name := r.Schema[0].Name
			got, gerr := Project(r, name)
			want, werr := legacyProject(r, name)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Project err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				mustSameRel(t, "Project", got, want)
			}
		case 2:
			nn := n % (len(r.Rows) + 2)
			if nn < 0 {
				// Legacy Limit panicked on negative n; the streaming one
				// clamps to zero rows. Assert the clamp, then compare the
				// non-negative twin.
				if got := Limit(r, nn); len(got.Rows) != 0 {
					t.Fatalf("Limit(%d) returned %d rows, want 0", nn, len(got.Rows))
				}
				nn = -nn
			}
			mustSameRel(t, "Limit", Limit(r, nn), legacyLimit(r, nn))
		case 3:
			if len(r.Schema) == 0 {
				return
			}
			name := r.Schema[0].Name
			got, gerr := Rename(r, name, name+"_renamed")
			want, werr := legacyRename(r, name, name+"_renamed")
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Rename err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				mustSameRel(t, "Rename", got, want)
			}
		case 4:
			it, gerr := NewUnion(NewScan(r), NewScan(r))
			want, werr := legacyUnion(r, r)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Union err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				got, _ := Materialize(it)
				got.Name = want.Name
				mustSameRel(t, "Union", got, want)
			}
		case 5:
			if len(r.Schema) == 0 {
				return
			}
			on := JoinPair{Left: r.Schema[0].Name, Right: r.Schema[0].Name}
			got, gerr := HashJoin(r, r, on)
			want, werr := legacyJoin(r, r, true, on)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("HashJoin err mismatch: %v vs %v", gerr, werr)
			}
			if gerr != nil {
				return
			}
			mustSameRel(t, "HashJoin", got, want)
			nl, nerr := NestedLoopJoin(r, r, on)
			if nerr != nil {
				t.Fatalf("NestedLoopJoin failed where HashJoin succeeded: %v", nerr)
			}
			mustSameRel(t, "HashJoin≡NestedLoopJoin", got, nl)
		case 6:
			if len(r.Schema) < 2 {
				return
			}
			on := []JoinPair{{r.Schema[0].Name, r.Schema[0].Name}, {r.Schema[1].Name, r.Schema[1].Name}}
			got, gerr := HashJoin(r, r, on...)
			nl, nerr := NestedLoopJoin(r, r, on...)
			if (gerr == nil) != (nerr == nil) {
				t.Fatalf("two-column join err mismatch: %v vs %v", gerr, nerr)
			}
			if gerr == nil {
				mustSameRel(t, "two-column HashJoin≡NestedLoopJoin", got, nl)
			}
		case 7:
			// Each row's non-null cells fused into one multi cell, sourced
			// by column, then self-joined on it: a key two unequal cells
			// share joins them.
			fused := New("fused", NewSchema(Col("m", KindMulti)))
			for _, row := range r.Rows {
				var cell []Sourced
				for i, v := range row {
					if !v.IsNull() {
						cell = append(cell, Sourced{r.Schema[i].Name, v})
					}
				}
				fused.MustAppend(Multi(cell...))
			}
			got, gerr := HashJoin(fused, fused, JoinPair{"m", "m"})
			nl, nerr := NestedLoopJoin(fused, fused, JoinPair{"m", "m"})
			if gerr != nil || nerr != nil {
				t.Fatalf("multi-cell joins failed: %v, %v", gerr, nerr)
			}
			mustSameRel(t, "multi-cell HashJoin≡NestedLoopJoin", got, nl)
		}
	})
}

// FuzzValueRoundTrip: whatever ParseValue accepts, ParseValue of the value's
// String form reads back to the same Key. This is the contract the JSON and
// CSV codecs rely on: a share written to the WAL replays as the same cells.
func FuzzValueRoundTrip(f *testing.F) {
	for _, seed := range []struct {
		k Kind
		s string
	}{
		{KindInt, "-9223372036854775808"}, {KindInt, "+7"},
		{KindFloat, "-0"}, {KindFloat, "NaN"}, {KindFloat, "-Inf"}, {KindFloat, "0x1p-2"}, {KindFloat, "1e308"},
		{KindString, "NULL"}, {KindBool, "T"},
		{KindTime, "2024-01-01T00:00:00.5+02:00"}, {KindTime, "2024-01-01T00:00:00,25Z"},
		{KindTime, "0000-01-01T00:00:00+01:00"}, {KindTime, "9999-12-31T23:59:59.999999999Z"},
	} {
		f.Add(byte(seed.k), seed.s)
	}
	f.Fuzz(func(t *testing.T, kb byte, s string) {
		v, err := ParseValue(Kind(kb%uint8(KindMulti+1)), s)
		if err != nil || v.IsNull() {
			return // NULL prints as "NULL", which no codec writes: they write ""
		}
		back, err := ParseValue(v.Kind(), v.String())
		if err != nil {
			t.Fatalf("ParseValue(%v, %q) = %v, but its String %q does not parse: %v", v.Kind(), s, v, v.String(), err)
		}
		if back.Key() != v.Key() {
			t.Fatalf("ParseValue(%v, %q): key %q, after String %q key %q", v.Kind(), s, v.Key(), v.String(), back.Key())
		}
	})
}
