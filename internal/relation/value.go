package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the value types a cell can hold.
type Kind uint8

// Supported kinds. KindMulti marks a non-1NF multi-valued cell.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
	KindMulti
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	case KindMulti:
		return "multi"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind is the inverse of Kind.String. It returns KindNull and false for
// unknown names.
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "null":
		return KindNull, true
	case "int":
		return KindInt, true
	case "float":
		return KindFloat, true
	case "string":
		return KindString, true
	case "bool":
		return KindBool, true
	case "time":
		return KindTime, true
	case "multi":
		return KindMulti, true
	default:
		return KindNull, false
	}
}

// Sourced tags a value with the identifier of the dataset (or seller) that
// contributed it. Fusion cells are sets of Sourced values.
type Sourced struct {
	Source string
	Value  Value
}

// Value is a dynamically typed cell value of 40 bytes (see the package doc).
// The zero Value is NULL. The zero-size func array keeps Value
// non-comparable: Equal is the only way to compare two cells.
type Value struct {
	_    [0]func()
	kind Kind
	w    uint64
	s    string
	x    *valueExt
}

// valueExt holds the payload of the rare kinds that do not fit a word.
type valueExt struct {
	t     time.Time
	multi []Sourced
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// String_ returns a string value. The trailing underscore avoids clashing
// with the Stringer method.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, w: 1}
	}
	return Value{kind: KindBool}
}

// Time returns a time value.
func Time(v time.Time) Value { return Value{kind: KindTime, x: &valueExt{t: v}} }

// Multi returns a non-1NF multi-valued cell holding the given sourced values.
// The slice is copied.
func Multi(vs ...Sourced) Value {
	cp := make([]Sourced, len(vs))
	copy(cp, vs)
	return Value{kind: KindMulti, x: &valueExt{multi: cp}}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It is valid only for KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.w)
}

// AsFloat returns the float payload. For KindInt it converts.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.w))
	case KindFloat:
		return math.Float64frombits(v.w)
	}
	return 0
}

// AsString returns the string payload. It is valid only for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload. It is valid only for KindBool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.w != 0 }

// AsMulti returns the sourced values of a multi cell. The returned slice must
// not be modified.
func (v Value) AsMulti() []Sourced {
	if v.kind != KindMulti {
		return nil
	}
	return v.x.multi
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality of two values: exactly when their Keys are
// equal. Int and float compare numerically across kinds (Int(2) equals
// Float(2.0)), and NaN equals NaN, as a join or a group by key takes it;
// multi cells compare as ordered lists of sourced values.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		return a == b || math.IsNaN(a) && math.IsNaN(b)
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.w == o.w
	case KindTime:
		return v.x.t.Equal(o.x.t)
	case KindMulti:
		vm, om := v.x.multi, o.x.multi
		if len(vm) != len(om) {
			return false
		}
		for i := range vm {
			if vm[i].Source != om[i].Source || !vm[i].Value.Equal(om[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

// Key returns a canonical string encoding usable as a hash-join key: two
// values share it exactly when they are Equal. Numeric values of equal
// magnitude share a key regardless of kind, zero regardless of its sign.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// AppendKey appends the value's canonical Key encoding to dst and returns the
// extended slice. It is the allocation-conscious form of Key: hot paths (hash
// joins, k-anonymity grouping) build composite row keys into a reused buffer
// instead of concatenating strings per cell.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "\x00N"...)
	case KindInt, KindFloat:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // -0 == 0
		}
		dst = append(dst, '\x01')
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case KindString:
		dst = append(dst, '\x02')
		return append(dst, v.s...)
	case KindBool:
		if v.w != 0 {
			return append(dst, "\x03t"...)
		}
		return append(dst, "\x03f"...)
	case KindTime:
		dst = append(dst, '\x04')
		t := v.x.t
		if ns := t.UnixNano(); time.Unix(0, ns).Equal(t) {
			return strconv.AppendInt(dst, ns, 10)
		}
		// UnixNano wraps outside 1678–2262: seconds and nanoseconds instead,
		// split by a '.' that no in-range key holds.
		dst = strconv.AppendInt(dst, t.Unix(), 10)
		dst = append(dst, '.')
		return strconv.AppendInt(dst, int64(t.Nanosecond()), 10)
	case KindMulti:
		// Each source, then its value's key, behind its length (4 bytes,
		// big-endian, as AppendRowKey frames cells), so no source or string
		// can shift a boundary: two multi cells share a key only if their
		// sources and values do, one by one.
		dst = append(dst, '\x05')
		for _, sv := range v.x.multi {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(sv.Source)))
			dst = append(dst, sv.Source...)
			at := len(dst)
			dst = sv.Value.AppendKey(append(dst, 0, 0, 0, 0))
			binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		}
		return dst
	}
	return dst
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.w != 0)
	case KindTime:
		return v.x.t.UTC().Format(time.RFC3339Nano)
	case KindMulti:
		parts := make([]string, len(v.x.multi))
		for i, sv := range v.x.multi {
			parts[i] = sv.Source + ":" + sv.Value.String()
		}
		return "{" + strings.Join(parts, "|") + "}"
	}
	return "?"
}

// ParseValue parses s into a value of the requested kind. Empty strings parse
// to NULL for every kind.
func ParseValue(kind Kind, s string) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindString:
		return String_(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindTime:
		t, err := parseTime(s)
		if err != nil {
			return Null(), fmt.Errorf("relation: parse time %q: %w", s, err)
		}
		return Time(t), nil
	}
	return Null(), fmt.Errorf("relation: cannot parse kind %v", kind)
}

// parseTime parses an RFC 3339 time and refuses one that String could not
// write back: String renders in UTC, and RFC 3339 years have four digits.
func parseTime(s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339, s)
	if y := t.UTC().Year(); err == nil && (y < 0 || y > 9999) {
		err = fmt.Errorf("year %d in UTC is outside RFC 3339", y)
	}
	return t, err
}

// InferValue guesses the kind of s and parses it (int, then float, then bool,
// then RFC3339 time, then string). Empty strings infer NULL.
func InferValue(s string) Value {
	if s == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsInf(f, 0) {
		return Float(f)
	}
	if s == "true" || s == "false" {
		return Bool(s == "true")
	}
	if t, err := parseTime(s); err == nil {
		return Time(t)
	}
	return String_(s)
}

// FlattenMulti resolves a multi cell to a single value using majority vote
// over equal values; ties break toward the lexicographically smallest source.
// Non-multi values are returned unchanged.
func (v Value) FlattenMulti() Value {
	if v.kind != KindMulti {
		return v
	}
	if len(v.x.multi) == 0 {
		return Null()
	}
	counts := map[string]int{}
	best := map[string]Sourced{}
	for _, sv := range v.x.multi {
		k := sv.Value.Key()
		counts[k]++
		if cur, ok := best[k]; !ok || sv.Source < cur.Source {
			best[k] = sv
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return best[keys[i]].Source < best[keys[j]].Source
	})
	return best[keys[0]].Value
}
