package relation

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(7), KindInt},
		{Float(3.5), KindFloat},
		{String_("x"), KindString},
		{Bool(true), KindBool},
		{Time(time.Unix(0, 0)), KindTime},
		{Multi(Sourced{"s", Int(1)}), KindMulti},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueEqualNumericCrossKind(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(2).Equal(String_("2")) {
		t.Error("Int(2) should not equal String(\"2\")")
	}
}

func TestValueKeyNumericCoalesce(t *testing.T) {
	if Int(3).Key() != Float(3).Key() {
		t.Error("Int(3) and Float(3) must share a hash key for joins")
	}
	if Int(3).Key() == Int(4).Key() {
		t.Error("distinct ints must have distinct keys")
	}
	if String_("3").Key() == Int(3).Key() {
		t.Error("string \"3\" must not collide with int 3")
	}
}

func TestParseRoundTrip(t *testing.T) {
	vals := []Value{
		Int(-42), Float(2.75), String_("hello world"), Bool(true),
		Time(time.Date(2020, 7, 1, 12, 0, 0, 0, time.UTC)),
	}
	for _, v := range vals {
		got, err := ParseValue(v.Kind(), v.String())
		if err != nil {
			t.Fatalf("parse %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(KindInt, "abc"); err == nil {
		t.Error("expected error parsing int \"abc\"")
	}
	if _, err := ParseValue(KindBool, "maybe"); err == nil {
		t.Error("expected error parsing bool \"maybe\"")
	}
	if v, err := ParseValue(KindInt, ""); err != nil || !v.IsNull() {
		t.Error("empty string must parse to NULL")
	}
	// String writes times in UTC, and RFC 3339 years have four digits: a
	// time it could not write back is refused.
	for _, s := range []string{"0000-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"} {
		if v, err := ParseValue(KindTime, s); err == nil {
			t.Errorf("ParseValue(time, %q) = %v, want an error", s, v)
		}
	}
}

func TestInferValue(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"42", KindInt},
		{"4.5", KindFloat},
		{"true", KindBool},
		{"2020-07-01T00:00:00Z", KindTime},
		{"0000-01-01T00:00:00Z", KindTime},
		{"9999-12-31T23:59:59Z", KindTime},
		{"0000-01-01T00:00:00+01:00", KindString},
		{"9999-12-31T23:59:59-01:00", KindString},
		{"chicago", KindString},
		{"", KindNull},
	}
	for _, c := range cases {
		if got := InferValue(c.in).Kind(); got != c.kind {
			t.Errorf("InferValue(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestFlattenMultiMajority(t *testing.T) {
	m := Multi(
		Sourced{"a", Float(20)},
		Sourced{"b", Float(21)},
		Sourced{"c", Float(20)},
	)
	if got := m.FlattenMulti(); !got.Equal(Float(20)) {
		t.Errorf("majority vote = %v, want 20", got)
	}
	// Tie: break toward lexicographically smallest source.
	tie := Multi(Sourced{"z", Float(1)}, Sourced{"a", Float(2)})
	if got := tie.FlattenMulti(); !got.Equal(Float(2)) {
		t.Errorf("tie break = %v, want value from source a (2)", got)
	}
	if !Multi().FlattenMulti().IsNull() {
		t.Error("empty multi flattens to NULL")
	}
	if got := Int(5).FlattenMulti(); !got.Equal(Int(5)) {
		t.Error("non-multi passes through")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindNull; k <= KindMulti; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind must reject unknown names")
	}
}

// Property: Key is injective on ints within float64-exact range.
func TestValueKeyInjective(t *testing.T) {
	f := func(a, b int32) bool {
		ka, kb := Int(int64(a)).Key(), Int(int64(b)).Key()
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ParseValue(v.Kind(), v.String()) round-trips floats.
func TestFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := Float(x)
		got, err := ParseValue(KindFloat, v.String())
		return err == nil && got.AsFloat() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueLayout pins the size of a cell: every catalog relation, share
// payload and cached mashup holds one Value per cell.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d B, want <= 40", got)
	}
}

// TestValueSemantics pins what every accessor returns for each kind's edge
// values, against hard-coded outputs, so a change of layout cannot move them.
func TestValueSemantics(t *testing.T) {
	plus2 := time.FixedZone("+02", 2*3600)
	cases := []struct {
		name   string
		v      Value
		kind   Kind
		i      int64
		f      float64
		s      string
		b      bool
		key    string
		str    string
		nmulti int
	}{
		{"null", Null(), KindNull, 0, 0, "", false, "\x00N", "NULL", 0},
		{"int0", Int(0), KindInt, 0, 0, "", false, "\x010", "0", 0},
		{"intmin", Int(math.MinInt64), KindInt, math.MinInt64, -9.223372036854775808e18, "", false, "\x01-9.223372036854776e+18", "-9223372036854775808", 0},
		{"intmax", Int(math.MaxInt64), KindInt, math.MaxInt64, 9.223372036854775807e18, "", false, "\x019.223372036854776e+18", "9223372036854775807", 0},
		// Equal to int0, so it keys as int0 does; it keyed "\x01-0" once, and
		// a hash join did not join the two cells a nested-loop join did.
		{"float-0", Float(math.Copysign(0, -1)), KindFloat, 0, math.Copysign(0, -1), "", false, "\x010", "-0", 0},
		{"float2.5", Float(2.5), KindFloat, 0, 2.5, "", false, "\x012.5", "2.5", 0},
		{"nan", Float(math.NaN()), KindFloat, 0, math.NaN(), "", false, "\x01NaN", "NaN", 0},
		{"+inf", Float(math.Inf(1)), KindFloat, 0, math.Inf(1), "", false, "\x01+Inf", "+Inf", 0},
		{"-inf", Float(math.Inf(-1)), KindFloat, 0, math.Inf(-1), "", false, "\x01-Inf", "-Inf", 0},
		{"str-empty", String_(""), KindString, 0, 0, "", false, "\x02", "", 0},
		{"str", String_("héllo"), KindString, 0, 0, "héllo", false, "\x02héllo", "héllo", 0},
		{"true", Bool(true), KindBool, 0, 0, "", true, "\x03t", "true", 0},
		{"false", Bool(false), KindBool, 0, 0, "", false, "\x03f", "false", 0},
		{"epoch", Time(time.Unix(0, 0)), KindTime, 0, 0, "", false, "\x040", "1970-01-01T00:00:00Z", 0},
		{"time+02", Time(time.Date(2024, 1, 1, 0, 0, 0, 0, plus2)), KindTime, 0, 0, "", false, "\x041704060000000000000", "2023-12-31T22:00:00Z", 0},
		{"timeutc", Time(time.Date(2023, 12, 31, 22, 0, 0, 0, time.UTC)), KindTime, 0, 0, "", false, "\x041704060000000000000", "2023-12-31T22:00:00Z", 0},
		// 2^64 ns apart: UnixNano gives both the same number.
		{"time1900", Time(time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)), KindTime, 0, 0, "", false, "\x04-2208988800000000000", "1900-01-01T00:00:00Z", 0},
		{"time2484", Time(time.Date(2484, 7, 20, 23, 34, 33, 709551616, time.UTC)), KindTime, 0, 0, "", false, "\x0416237755273.709551616", "2484-07-20T23:34:33.709551616Z", 0},
		{"multi", Multi(Sourced{"a", Int(1)}, Sourced{"b", String_("x")}), KindMulti, 0, 0, "", false,
			"\x05\x00\x00\x00\x01a\x00\x00\x00\x02\x011\x00\x00\x00\x01b\x00\x00\x00\x02\x02x", "{a:1|b:x}", 2},
		// One source whose value spells out a second source: the raw
		// "source=key;" encoding gave these two the same key.
		{"multi-one", Multi(Sourced{"a", String_("x;b=\x02y")}), KindMulti, 0, 0, "", false,
			"\x05\x00\x00\x00\x01a\x00\x00\x00\x07\x02x;b=\x02y", "{a:x;b=\x02y}", 1},
		{"multi-two", Multi(Sourced{"a", String_("x")}, Sourced{"b", String_("y")}), KindMulti, 0, 0, "", false,
			"\x05\x00\x00\x00\x01a\x00\x00\x00\x02\x02x\x00\x00\x00\x01b\x00\x00\x00\x02\x02y", "{a:x|b:y}", 2},
		{"multi-empty", Multi(), KindMulti, 0, 0, "", false, "\x05", "{}", 0},
	}
	// equal lists the pairs, beyond each value with itself (NaN included: it
	// keys as itself), that Equal joins: ints and floats compare numerically,
	// times as instants in any zone. A pair is Equal exactly when it shares a
	// key.
	equal := map[[2]string]bool{
		{"int0", "float-0"}:    true,
		{"time+02", "timeutc"}: true,
	}
	for _, c := range cases {
		v := c.v
		if v.Kind() != c.kind || v.AsInt() != c.i || v.AsString() != c.s || v.AsBool() != c.b ||
			len(v.AsMulti()) != c.nmulti || v.IsNull() != (c.kind == KindNull) {
			t.Errorf("%s: kind %v int %d string %q bool %v multi %d", c.name, v.Kind(), v.AsInt(), v.AsString(), v.AsBool(), len(v.AsMulti()))
		}
		if f := v.AsFloat(); math.Float64bits(f) != math.Float64bits(c.f) && !(math.IsNaN(f) && math.IsNaN(c.f)) {
			t.Errorf("%s: AsFloat = %v, want %v", c.name, f, c.f)
		}
		if v.Key() != c.key || string(v.AppendKey([]byte("p"))) != "p"+c.key {
			t.Errorf("%s: Key = %q, want %q", c.name, v.Key(), c.key)
		}
		if v.String() != c.str {
			t.Errorf("%s: String = %q, want %q", c.name, v.String(), c.str)
		}
		for _, o := range cases {
			want := c.name == o.name || equal[[2]string{c.name, o.name}] || equal[[2]string{o.name, c.name}]
			if got := v.Equal(o.v); got != want {
				t.Errorf("%s.Equal(%s) = %v, want %v", c.name, o.name, got, want)
			}
			if same := v.Key() == o.v.Key(); same != want {
				t.Errorf("%s and %s: keys %q and %q, Equal %v", c.name, o.name, v.Key(), o.v.Key(), want)
			}
		}
	}
}

// TestTimeJSONKeepsSubseconds: a time cell survives the relation's JSON codec
// (WAL share payloads, snapshots) to the nanosecond, and a whole-second time
// encodes as it always has.
func TestTimeJSONKeepsSubseconds(t *testing.T) {
	r := New("ts", NewSchema(Col("t", KindTime)))
	for _, s := range []string{"2024-01-01T00:00:00.5+02:00", "2024-01-01T00:00:00.000000001Z", "2024-01-01T00:00:00+02:00"} {
		v, err := ParseValue(KindTime, s)
		if err != nil {
			t.Fatal(err)
		}
		r.MustAppend(v)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"ts","cols":["t"],"kinds":["time"],"rows":[["2023-12-31T22:00:00.5Z"],["2024-01-01T00:00:00.000000001Z"],["2023-12-31T22:00:00Z"]]}`
	if string(raw) != want {
		t.Fatalf("json = %s\nwant   %s", raw, want)
	}
	var back Relation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for i, row := range back.Rows {
		if !row[0].Equal(r.Rows[i][0]) || row[0].Key() != r.Rows[i][0].Key() {
			t.Errorf("row %d: %v (key %q) after the round trip, was %v (key %q)", i, row[0], row[0].Key(), r.Rows[i][0], r.Rows[i][0].Key())
		}
	}
}

// TestCellBytes is a deterministic gate on bytes allocated per cell when a
// relation is copied or projected, the two ways cells are held: catalog
// copies (Clone) and materialized candidates (Materialize of a projection).
func TestCellBytes(t *testing.T) {
	const rows, cols = 400, 3
	r := New("cells", NewSchema(Col("a", KindInt), Col("b", KindFloat), Col("c", KindInt)))
	for i := 0; i < rows; i++ {
		r.MustAppend(Int(int64(i)), Float(float64(i)/3), Int(int64(-i)))
	}
	for _, c := range []struct {
		name string
		op   func() *Relation
	}{
		{"Clone", r.Clone},
		{"Materialize(Project(Scan))", func() *Relation {
			p, err := NewProject(NewScan(r), "c", "b", "a")
			if err != nil {
				t.Fatal(err)
			}
			out, err := Materialize(p)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.op().NumRows() != rows {
					b.Fatal("lost rows")
				}
			}
		})
		perCell := float64(res.AllocedBytesPerOp()) / (rows * cols)
		t.Logf("%s: %.1f B per cell", c.name, perCell)
		if perCell > 56 {
			t.Errorf("%s allocates %.1f B per cell, want <= 56", c.name, perCell)
		}
	}
}
