package relation

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkPeople() *Relation {
	r := New("people", NewSchema(
		Col("id", KindInt), Col("name", KindString), Col("age", KindInt), Col("city", KindString),
	))
	r.MustAppend(Int(1), String_("ada"), Int(36), String_("london"))
	r.MustAppend(Int(2), String_("alan"), Int(41), String_("london"))
	r.MustAppend(Int(3), String_("grace"), Int(45), String_("nyc"))
	r.MustAppend(Int(4), String_("edsger"), Int(39), String_("austin"))
	return r
}

func mkSalaries() *Relation {
	r := New("salaries", NewSchema(Col("pid", KindInt), Col("salary", KindFloat)))
	r.MustAppend(Int(1), Float(100))
	r.MustAppend(Int(2), Float(120))
	r.MustAppend(Int(3), Float(150))
	r.MustAppend(Int(9), Float(999)) // dangling
	return r
}

func TestSelectProject(t *testing.T) {
	p := mkPeople()
	sel := Select(p, func(row []Value, s Schema) bool {
		return row[s.IndexOf("city")].Equal(String_("london"))
	})
	if sel.NumRows() != 2 {
		t.Fatalf("select rows = %d, want 2", sel.NumRows())
	}
	proj, err := Project(sel, "name", "age")
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Schema.Equal(NewSchema(Col("name", KindString), Col("age", KindInt))) {
		t.Errorf("projected schema = %s", proj.Schema)
	}
	if _, err := Project(p, "nope"); err == nil {
		t.Error("project on unknown column must error")
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	p, s := mkPeople(), mkSalaries()
	hj, err := HashJoin(p, s, JoinPair{"id", "pid"})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NestedLoopJoin(p, s, JoinPair{"id", "pid"})
	if err != nil {
		t.Fatal(err)
	}
	if hj.NumRows() != 3 || nl.NumRows() != 3 {
		t.Fatalf("join rows hash=%d nested=%d, want 3", hj.NumRows(), nl.NumRows())
	}
	// Same rows, in the same order.
	if !hj.Equal(nl) {
		t.Error("hash join and nested loop join disagree")
	}
	if !hj.Schema.Has("salary") {
		t.Error("join must carry right columns")
	}
	if hj.Schema.Has("pid") {
		t.Error("join must drop right join column")
	}
}

func TestJoinNullsNeverMatch(t *testing.T) {
	a := New("a", NewSchema(Col("k", KindInt), Col("x", KindString)))
	a.MustAppend(Null(), String_("na"))
	a.MustAppend(Int(1), String_("one"))
	b := New("b", NewSchema(Col("k", KindInt), Col("y", KindString)))
	b.MustAppend(Null(), String_("nb"))
	b.MustAppend(Int(1), String_("uno"))
	j, err := HashJoin(a, b, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("null keys must not join; rows=%d", j.NumRows())
	}
}

func TestJoinNameCollisionSuffix(t *testing.T) {
	a := New("a", NewSchema(Col("k", KindInt), Col("v", KindInt)))
	a.MustAppend(Int(1), Int(10))
	b := New("b", NewSchema(Col("k", KindInt), Col("v", KindInt)))
	b.MustAppend(Int(1), Int(20))
	j, err := HashJoin(a, b, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Schema.Has("v") || !j.Schema.Has("v_r") {
		t.Errorf("expected v and v_r, got %s", j.Schema)
	}
}

func TestMapAndAddColumn(t *testing.T) {
	p := mkPeople()
	doubled, err := Map(p, "age", KindInt, func(v Value) Value {
		if v.IsNull() {
			return v
		}
		return Int(v.AsInt() * 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if doubled.Rows[0][2].AsInt() != 72 {
		t.Errorf("mapped age = %v", doubled.Rows[0][2])
	}
	// Original untouched.
	if p.Rows[0][2].AsInt() != 36 {
		t.Error("Map must not mutate input")
	}
	withFlag := AddColumn(p, Col("senior", KindBool), func(row []Value, s Schema) Value {
		return Bool(row[s.IndexOf("age")].AsInt() >= 40)
	})
	if len(withFlag.Schema) != 5 {
		t.Error("AddColumn arity")
	}
	v, _ := withFlag.Cell(1, "senior")
	if !v.AsBool() {
		t.Error("alan is senior")
	}
}

func TestAppendValidation(t *testing.T) {
	r := New("t", NewSchema(Col("a", KindInt)))
	if err := r.Append([]Value{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch must error")
	}
	if err := r.Append([]Value{String_("x")}); err == nil {
		t.Error("kind mismatch must error")
	}
	if err := r.Append([]Value{Null()}); err != nil {
		t.Error("NULL fits any column")
	}
	f := New("f", NewSchema(Col("a", KindFloat)))
	if err := f.Append([]Value{Int(3)}); err != nil {
		t.Error("int fits float column")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p := mkPeople()
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("people", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Errorf("csv round trip mismatch:\n%s\nvs\n%s", got, p)
	}
}

func TestReadCSVInferred(t *testing.T) {
	src := "id,name,score\n1,ada,3.5\n2,alan,4.0\n"
	r, err := ReadCSVInferred("t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.KindOf("id") != KindInt || r.Schema.KindOf("score") != KindFloat || r.Schema.KindOf("name") != KindString {
		t.Errorf("inferred schema = %s", r.Schema)
	}
	if r.NumRows() != 2 {
		t.Errorf("rows = %d", r.NumRows())
	}
}

// TestReadCSVInferredMixedColumn: a column whose later cell contradicts the
// kind of its first cell is a string column in every row, so it joins with
// another file's string column on the rows parsed before the contradiction
// too.
func TestReadCSVInferredMixedColumn(t *testing.T) {
	l, err := ReadCSVInferred("l", strings.NewReader("k,v\n1,one\n2,two\nx,ex\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Schema.KindOf("k") != KindString {
		t.Fatalf("mixed column kind = %s, want string", l.Schema.KindOf("k"))
	}
	for i, row := range l.Rows {
		if row[0].Kind() != KindString {
			t.Errorf("row %d: k = %s of kind %s under a string column", i, row[0], row[0].Kind())
		}
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
	r, err := ReadCSVInferred("r", strings.NewReader("k,w\nx,1\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := HashJoin(l, r, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("join on the mixed column = %d rows, want 2:\n%s", j.NumRows(), j)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := mkPeople()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Relation
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Error("json round trip mismatch")
	}
}

// TestJSONRejectsWrongArity: a row wider or narrower than the schema is
// refused, never indexed past the schema or padded with NULLs.
func TestJSONRejectsWrongArity(t *testing.T) {
	for _, body := range []string{
		`{"cols":["a"],"kinds":["int"],"rows":[["1","2"]]}`,
		`{"cols":["a","b"],"kinds":["int","int"],"rows":[["1","2"],["3"]]}`,
	} {
		var got Relation
		if err := json.Unmarshal([]byte(body), &got); err == nil {
			t.Errorf("%s: decoded %d rows, want an arity error", body, got.NumRows())
		}
	}
}

func TestMissingRatio(t *testing.T) {
	r := New("t", NewSchema(Col("a", KindInt), Col("b", KindInt)))
	r.MustAppend(Int(1), Null())
	r.MustAppend(Null(), Null())
	if got := r.MissingRatio(); got != 0.75 {
		t.Errorf("missing ratio = %v, want 0.75", got)
	}
}

// Property: hash join row count equals nested loop row count on random data.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New("a", NewSchema(Col("k", KindInt), Col("x", KindInt)))
		b := New("b", NewSchema(Col("k", KindInt), Col("y", KindInt)))
		for i := 0; i < 30; i++ {
			a.MustAppend(Int(int64(rng.Intn(8))), Int(int64(i)))
			b.MustAppend(Int(int64(rng.Intn(8))), Int(int64(i)))
		}
		hj, err1 := HashJoin(a, b, JoinPair{"k", "k"})
		nl, err2 := NestedLoopJoin(a, b, JoinPair{"k", "k"})
		return err1 == nil && err2 == nil && hj.NumRows() == nl.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := &Relation{Name: "b", Schema: NewSchema(Col("a", KindInt), Col("a", KindInt))}
	if bad.Validate() == nil {
		t.Error("duplicate column names must fail validation")
	}
	ok := mkPeople()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid relation failed: %v", err)
	}
}

func TestRenameAndStringer(t *testing.T) {
	p := mkPeople()
	r, err := Rename(p, "city", "town")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema.Has("town") || r.Schema.Has("city") {
		t.Error("rename failed")
	}
	if p.Schema.Has("town") {
		t.Error("rename must not mutate original schema")
	}
	if s := p.String(); !strings.Contains(s, "people") || !strings.Contains(s, "ada") {
		t.Errorf("String() = %q", s)
	}
}

func TestSchemaCoverage(t *testing.T) {
	p := mkPeople()
	if got := p.Schema.CoverageOf([]string{"id", "name", "missing"}); got < 0.66 || got > 0.67 {
		t.Errorf("coverage = %v, want 2/3", got)
	}
	if p.Schema.CoverageOf(nil) != 1 {
		t.Error("empty wanted covers trivially")
	}
}

func TestJoinErrors(t *testing.T) {
	a := mkPeople()
	b := mkSalaries()
	if _, err := HashJoin(a, b); err == nil {
		t.Error("join without pairs must fail")
	}
	if _, err := HashJoin(a, b, JoinPair{"ghost", "pid"}); err == nil {
		t.Error("unknown left column must fail")
	}
	if _, err := HashJoin(a, b, JoinPair{"id", "ghost"}); err == nil {
		t.Error("unknown right column must fail")
	}
}

func TestMultiPairJoin(t *testing.T) {
	a := New("a", NewSchema(Col("x", KindInt), Col("y", KindString), Col("p", KindInt)))
	a.MustAppend(Int(1), String_("u"), Int(10))
	a.MustAppend(Int(1), String_("v"), Int(20))
	b := New("b", NewSchema(Col("x", KindInt), Col("y", KindString), Col("q", KindInt)))
	b.MustAppend(Int(1), String_("u"), Int(100))
	j, err := HashJoin(a, b, JoinPair{"x", "x"}, JoinPair{"y", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Errorf("composite key join rows = %d, want 1", j.NumRows())
	}

	// A string cell holds any byte, so one cell's bytes must not pass for
	// the boundary between two cells.
	c := New("c", NewSchema(Col("x", KindString), Col("y", KindString)))
	c.MustAppend(String_("x\x1f\x02y"), String_("z"))
	d := New("d", NewSchema(Col("x", KindString), Col("y", KindString)))
	d.MustAppend(String_("x"), String_("y\x1f\x02z"))
	on := []JoinPair{{"x", "x"}, {"y", "y"}}
	hj, err := HashJoin(c, d, on...)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NestedLoopJoin(c, d, on...)
	if err != nil {
		t.Fatal(err)
	}
	if hj.NumRows() != 0 || nl.NumRows() != 0 {
		t.Errorf("rows that differ in every cell joined: hash %d, nested loop %d, want 0", hj.NumRows(), nl.NumRows())
	}
}
