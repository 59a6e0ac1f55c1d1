package relation

import (
	"math"
	"testing"
	"testing/quick"
	"time"
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
