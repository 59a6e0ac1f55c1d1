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
			mustSameRel(t, "Select", drain(t, NewSelect(NewScan(r), pred)), legacySelect(r, pred))
		case 1:
			if len(r.Schema) == 0 {
				return
			}
			name := r.Schema[0].Name
			it, gerr := NewProject(NewScan(r), name)
			want, werr := legacyProject(r, name)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Project err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				mustSameRel(t, "Project", drain(t, it), want)
			}
		case 2:
			nn := n % (len(r.Rows) + 2)
			if nn < 0 {
				// Legacy Limit panicked on negative n; the streaming one
				// clamps to zero rows. Assert the clamp, then compare the
				// non-negative twin.
				if got := drain(t, NewLimit(NewScan(r), nn)); len(got.Rows) != 0 {
					t.Fatalf("Limit(%d) returned %d rows, want 0", nn, len(got.Rows))
				}
				nn = -nn
			}
			mustSameRel(t, "Limit", drain(t, NewLimit(NewScan(r), nn)), legacyLimit(r, nn))
		case 3:
			if len(r.Schema) == 0 {
				return
			}
			name := r.Schema[0].Name
			it, gerr := NewRename(NewScan(r), name, name+"_renamed")
			want, werr := legacyRename(r, name, name+"_renamed")
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Rename err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				mustSameRel(t, "Rename", drain(t, it), want)
			}
		case 4:
			it, gerr := NewUnion(NewScan(r), NewScan(r))
			want, werr := legacyUnion(r, r)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Union err mismatch: %v vs %v", gerr, werr)
			}
			if gerr == nil {
				mustSameRel(t, "Union", drain(t, it), want)
			}
		case 5:
			if len(r.Schema) == 0 {
				return
			}
			on := JoinPair{Left: r.Schema[0].Name, Right: r.Schema[0].Name}
			got, gerr := scanJoin(r, r, on)
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
			got, gerr := scanJoin(r, r, on...)
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
			got, gerr := scanJoin(fused, fused, JoinPair{"m", "m"})
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
// A second parsed value pins the key's own contract, that two cells share a
// key exactly when they are Equal (hash joins, distinct counts and groupings
// key what the nested-loop join compares): for the pair, for the pair nested
// in multi cells, and for multi cells holding both in either order.
func FuzzValueRoundTrip(f *testing.F) {
	for _, seed := range []struct {
		k, k2 Kind
		s, s2 string
	}{
		{KindInt, KindInt, "-9223372036854775808", "+7"},
		{KindFloat, KindFloat, "-0", "NaN"}, {KindFloat, KindFloat, "NaN", "nan"}, {KindFloat, KindInt, "-Inf", "0"}, {KindInt, KindFloat, "0", "-0"},
		{KindFloat, KindFloat, "0x1p-2", "1e308"}, {KindInt, KindFloat, "9007199254740993", "9007199254740992"},
		{KindString, KindNull, "NULL", ""}, {KindBool, KindString, "T", "true"}, {KindBool, KindBool, "false", "0"},
		{KindTime, KindTime, "2024-01-01T00:00:00.5+02:00", "2023-12-31T22:00:00.5Z"}, {KindTime, KindTime, "2024-01-01T00:00:00,25Z", "2024-01-01T00:00:00.25Z"},
		{KindTime, KindTime, "0000-01-01T00:00:00+01:00", "9999-12-31T23:59:59.999999999Z"},
	} {
		f.Add(byte(seed.k), seed.s, byte(seed.k2), seed.s2)
	}
	f.Fuzz(func(t *testing.T, kb byte, s string, kb2 byte, s2 string) {
		var vs [2]Value
		for i, in := range [2]struct {
			k byte
			s string
		}{{kb, s}, {kb2, s2}} {
			v, err := ParseValue(Kind(in.k%uint8(KindMulti+1)), in.s)
			if err != nil {
				return
			}
			vs[i] = v
			if v.IsNull() {
				continue // NULL prints as "NULL", which no codec writes: they write ""
			}
			back, err := ParseValue(v.Kind(), v.String())
			if err != nil {
				t.Fatalf("ParseValue(%v, %q) = %v, but its String %q does not parse: %v", v.Kind(), in.s, v, v.String(), err)
			}
			if back.Key() != v.Key() {
				t.Fatalf("ParseValue(%v, %q): key %q, after String %q key %q", v.Kind(), in.s, v.Key(), v.String(), back.Key())
			}
		}
		a, b := vs[0], vs[1]
		for _, p := range [][2]Value{{a, b},
			{Multi(Sourced{"s", a}), Multi(Sourced{"s", b})},
			{Multi(Sourced{"s", a}, Sourced{"s", b}), Multi(Sourced{"s", b}, Sourced{"s", a})},
		} {
			if eq, same := p[0].Equal(p[1]), p[0].Key() == p[1].Key(); eq != same {
				t.Fatalf("%v and %v: Equal %v, keys %q and %q", p[0], p[1], eq, p[0].Key(), p[1].Key())
			}
		}
	})
}
