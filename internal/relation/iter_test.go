package relation

// The equivalence harness pins the streaming iterator engine to the original
// eager operators, copied below verbatim as legacy* helpers. The production
// eager functions are now thin Materialize wrappers over the iterators, so
// comparing production-vs-iterator would be vacuous; comparing against the
// frozen legacy code is what actually proves "same rows, same order, same
// names, same errors" across the refactor.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// ---- frozen pre-refactor implementations ----

func legacySelect(r *Relation, pred Predicate) *Relation {
	out := New(r.Name+"_sel", r.Schema)
	for _, row := range r.Rows {
		if pred(row, r.Schema) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func legacyProject(r *Relation, names ...string) (*Relation, error) {
	sub, err := r.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = r.Schema.IndexOf(n)
	}
	out := New(r.Name+"_proj", sub)
	out.Rows = make([][]Value, len(r.Rows))
	for j, row := range r.Rows {
		nr := make([]Value, len(idx))
		for i, k := range idx {
			nr[i] = row[k]
		}
		out.Rows[j] = nr
	}
	return out, nil
}

func legacyRename(r *Relation, old, new string) (*Relation, error) {
	s, err := r.Schema.Rename(old, new)
	if err != nil {
		return nil, fmt.Errorf("relation %q: %w", r.Name, err)
	}
	return &Relation{Name: r.Name, Schema: s, Rows: r.Rows}, nil
}

func legacyLimit(r *Relation, n int) *Relation {
	if n > len(r.Rows) {
		n = len(r.Rows)
	}
	out := New(r.Name+"_lim", r.Schema)
	out.Rows = r.Rows[:n]
	return out
}

func legacyUnion(a, b *Relation) (*Relation, error) {
	if !a.Schema.Equal(b.Schema) {
		return nil, fmt.Errorf("relation: union schema mismatch %s vs %s", a.Schema, b.Schema)
	}
	out := New(a.Name+"_union", a.Schema)
	out.Rows = make([][]Value, 0, len(a.Rows)+len(b.Rows))
	out.Rows = append(out.Rows, a.Rows...)
	out.Rows = append(out.Rows, b.Rows...)
	return out, nil
}

func legacyJoin(l, r *Relation, hash bool, on ...JoinPair) (*Relation, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("relation: join needs at least one column pair")
	}
	li := make([]int, len(on))
	ri := make([]int, len(on))
	for k, p := range on {
		li[k] = l.Schema.IndexOf(p.Left)
		ri[k] = r.Schema.IndexOf(p.Right)
		if li[k] < 0 {
			return nil, fmt.Errorf("relation: join: left %q has no column %q", l.Name, p.Left)
		}
		if ri[k] < 0 {
			return nil, fmt.Errorf("relation: join: right %q has no column %q", r.Name, p.Right)
		}
	}
	dropRight := make(map[int]bool, len(on))
	for _, k := range ri {
		dropRight[k] = true
	}
	schema := l.Schema.Clone()
	var rightKeep []int
	for j, c := range r.Schema {
		if dropRight[j] {
			continue
		}
		name := c.Name
		for schema.Has(name) {
			name += "_r"
		}
		schema = append(schema, Column{Name: name, Kind: c.Kind})
		rightKeep = append(rightKeep, j)
	}
	out := New(l.Name+"⋈"+r.Name, schema)

	var emitErr error
	emit := func(lrow, rrow []Value) {
		if len(out.Rows) >= maxJoinRows {
			emitErr = fmt.Errorf("relation: join %s would exceed %d rows", out.Name, maxJoinRows)
			return
		}
		nr := make([]Value, 0, len(schema))
		nr = append(nr, lrow...)
		for _, j := range rightKeep {
			nr = append(nr, rrow[j])
		}
		out.Rows = append(out.Rows, nr)
	}
	keyOf := func(row []Value, idx []int) string {
		var b []byte
		for _, i := range idx {
			b = append(b, row[i].Key()...)
			b = append(b, 0x1f)
		}
		return string(b)
	}

	if hash {
		ht := make(map[string][]int, len(r.Rows))
		for j, row := range r.Rows {
			skip := false
			for _, i := range ri {
				if row[i].IsNull() {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			k := keyOf(row, ri)
			ht[k] = append(ht[k], j)
		}
		for _, lrow := range l.Rows {
			skip := false
			for _, i := range li {
				if lrow[i].IsNull() {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			for _, j := range ht[keyOf(lrow, li)] {
				emit(lrow, r.Rows[j])
				if emitErr != nil {
					return nil, emitErr
				}
			}
		}
		return out, nil
	}

	for _, lrow := range l.Rows {
		for _, rrow := range r.Rows {
			match := true
			for k := range on {
				lv, rv := lrow[li[k]], rrow[ri[k]]
				if lv.IsNull() || rv.IsNull() || !lv.Equal(rv) {
					match = false
					break
				}
			}
			if match {
				emit(lrow, rrow)
				if emitErr != nil {
					return nil, emitErr
				}
			}
		}
	}
	return out, nil
}

func legacyMap(r *Relation, name string, newKind Kind, fn func(Value) Value) (*Relation, error) {
	i := r.Schema.IndexOf(name)
	if i < 0 {
		return nil, fmt.Errorf("relation %q: no column %q", r.Name, name)
	}
	out := r.Clone()
	out.Schema[i].Kind = newKind
	for _, row := range out.Rows {
		row[i] = fn(row[i])
	}
	return out, nil
}

func legacyAddColumn(r *Relation, col Column, fn func(row []Value, schema Schema) Value) *Relation {
	out := New(r.Name, append(r.Schema.Clone(), col))
	out.Rows = make([][]Value, len(r.Rows))
	for j, row := range r.Rows {
		nr := make([]Value, 0, len(row)+1)
		nr = append(nr, row...)
		nr = append(nr, fn(row, r.Schema))
		out.Rows[j] = nr
	}
	return out
}

// ---- random relation generator ----

// randValue draws from a deliberately tiny domain so joins hit duplicate
// keys.
func randValue(rng *rand.Rand, k Kind) Value {
	if rng.Float64() < 0.15 {
		return Null()
	}
	switch k {
	case KindInt:
		return Int(int64(rng.Intn(5)))
	case KindFloat:
		return Float([]float64{0, 0.5, -1.25, 3.75}[rng.Intn(4)])
	case KindString:
		return String_([]string{"a", "b", "cc", ""}[rng.Intn(4)])
	case KindBool:
		return Bool(rng.Intn(2) == 0)
	case KindTime:
		return Time(time.Unix(int64(1700000000+rng.Intn(3)*86400), int64(rng.Intn(2))).UTC())
	default:
		return Null()
	}
}

var testKinds = []Kind{KindInt, KindFloat, KindString, KindBool, KindTime}

// randRel builds a relation named name whose first column is always an int
// key (so any two generated relations are joinable on column 0) followed by
// 0–4 columns of random kinds, holding 0–30 rows of small-domain values.
func randRel(rng *rand.Rand, name, keyCol string) *Relation {
	ncols := rng.Intn(5)
	schema := Schema{Col(keyCol, KindInt)}
	for i := 0; i < ncols; i++ {
		schema = append(schema, Col(fmt.Sprintf("%s_c%d", name, i), testKinds[rng.Intn(len(testKinds))]))
	}
	r := New(name, schema)
	nrows := rng.Intn(31)
	for j := 0; j < nrows; j++ {
		row := make([]Value, len(schema))
		for i, c := range schema {
			row[i] = randValue(rng, c.Kind)
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// mustSameRel fails the test unless got and want match on name, schema
// (names and kinds), and every row cell in order.
func mustSameRel(t *testing.T, op string, got, want *Relation) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: name %q != legacy %q", op, got.Name, want.Name)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s != legacy %s", op, got.Schema, want.Schema)
	}
	for i := range got.Schema {
		if got.Schema[i].Name != want.Schema[i].Name {
			t.Fatalf("%s: column %d named %q != legacy %q", op, i, got.Schema[i].Name, want.Schema[i].Name)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows != legacy %d rows", op, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if !got.Rows[i][j].Equal(want.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %s != legacy %s", op, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestStreamingMatchesLegacyEager is the property harness of the refactor:
// across many random relations, every streaming operator must agree with the
// frozen eager implementation row for row, including order and result names.
func TestStreamingMatchesLegacyEager(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			l := randRel(rng, "l", "k")
			r := randRel(rng, "r", "k")

			pred := func(row []Value, s Schema) bool {
				return !row[0].IsNull() && row[0].AsFloat() >= 2
			}
			mustSameRel(t, "Select", Select(l, pred), legacySelect(l, pred))

			// Project onto a shuffled subset of columns.
			names := make([]string, len(l.Schema))
			for i, c := range l.Schema {
				names[i] = c.Name
			}
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			names = names[:1+rng.Intn(len(names))]
			gotP, errP := Project(l, names...)
			wantP, errPL := legacyProject(l, names...)
			if (errP == nil) != (errPL == nil) {
				t.Fatalf("Project: err %v vs legacy %v", errP, errPL)
			}
			mustSameRel(t, "Project", gotP, wantP)

			gotR, err := Rename(l, "k", "kk")
			if err != nil {
				t.Fatal(err)
			}
			wantR, _ := legacyRename(l, "k", "kk")
			mustSameRel(t, "Rename", gotR, wantR)

			n := rng.Intn(len(l.Rows) + 3)
			mustSameRel(t, "Limit", Limit(l, n), legacyLimit(l, n))

			l2 := l.Clone()
			itU, err := NewUnion(NewScan(l), NewScan(l2))
			if err != nil {
				t.Fatal(err)
			}
			gotU, _ := Materialize(itU)
			wantU, _ := legacyUnion(l, l2)
			gotU.Name = wantU.Name
			mustSameRel(t, "Union", gotU, wantU)

			fn := func(v Value) Value {
				if v.IsNull() {
					return v
				}
				return Float(v.AsFloat() * 2)
			}
			gotM, err := Map(l, "k", KindFloat, fn)
			if err != nil {
				t.Fatal(err)
			}
			wantM, _ := legacyMap(l, "k", KindFloat, fn)
			mustSameRel(t, "Map", gotM, wantM)

			add := func(row []Value, s Schema) Value {
				if row[0].IsNull() {
					return Null()
				}
				return Int(int64(len(row)))
			}
			mustSameRel(t, "AddColumn",
				AddColumn(l, Col("extra", KindInt), add),
				legacyAddColumn(l, Col("extra", KindInt), add))

			on := []JoinPair{{Left: "k", Right: "k"}}
			gotJ, err := HashJoin(l, r, on...)
			if err != nil {
				t.Fatal(err)
			}
			wantJ, _ := legacyJoin(l, r, true, on...)
			mustSameRel(t, "HashJoin", gotJ, wantJ)

			gotN, err := NestedLoopJoin(l, r, on...)
			if err != nil {
				t.Fatal(err)
			}
			wantN, _ := legacyJoin(l, r, false, on...)
			mustSameRel(t, "NestedLoopJoin", gotN, wantN)
			// Hash and nested-loop joins promise identical output order.
			mustSameRel(t, "HashJoin≡NestedLoopJoin", gotJ, wantN)

			// Fused pipeline: one materialization over a stacked iterator.
			it := NewSelect(NewScan(l), pred)
			it, err = NewProject(it, names...)
			if err == nil {
				it = NewLimit(it, n)
				gotPipe, err := Materialize(it)
				if err != nil {
					t.Fatal(err)
				}
				wantPipe := legacyLimit(legacyMust(legacyProject(legacySelect(l, pred), names...)), n)
				gotPipe.Name = wantPipe.Name
				mustSameRel(t, "fused pipeline", gotPipe, wantPipe)
			}
		})
	}
}

func legacyMust(r *Relation, err error) *Relation {
	if err != nil {
		panic(err)
	}
	return r
}

// TestJoinCollisionSuffix pins the "_r"-suffix cascade: right columns that
// collide with an output name keep appending "_r" until unique, including
// against columns already suffixed in the same join.
func TestJoinCollisionSuffix(t *testing.T) {
	l := New("l", NewSchema(Col("k", KindInt), Col("x", KindInt), Col("x_r", KindInt)))
	r := New("r", NewSchema(Col("k", KindInt), Col("x", KindFloat), Col("x_r", KindString)))
	l.MustAppend(Int(1), Int(10), Int(11))
	r.MustAppend(Int(1), Float(0.5), String_("s"))

	got, err := HashJoin(l, r, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyJoin(l, r, true, JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	mustSameRel(t, "collision join", got, want)
	names := make([]string, len(got.Schema))
	for i, c := range got.Schema {
		names[i] = c.Name
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[k x x_r x_r_r x_r_r_r]" {
		t.Fatalf("collision suffixes = %v", names)
	}
}

// TestJoinOrigin pins the input ordinals the hash join reports for each
// output row: they count the null-keyed rows it skipped on both sides, a
// duplicate build key reports each of its right rows, and any other iterator
// reports none.
func TestJoinOrigin(t *testing.T) {
	l := New("l", NewSchema(Col("k", KindInt)))
	for _, k := range []Value{Null(), Int(1), Null(), Int(2), Int(3)} {
		l.MustAppend(k)
	}
	r := New("r", NewSchema(Col("k", KindInt), Col("x", KindInt)))
	for i, k := range []Value{Null(), Int(2), Int(1), Null(), Int(2)} {
		r.MustAppend(k, Int(int64(i)))
	}
	it, err := NewHashJoin(NewScan(l), NewScan(r), "l", "r", JoinPair{"k", "k"})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, _, ok := JoinOrigin(it); ok {
		t.Fatal("JoinOrigin before the first row reports an origin")
	}
	var got [][2]int
	for row, ok := it.Next(); ok; row, ok = it.Next() {
		li, ri, ok := JoinOrigin(it)
		if !ok {
			t.Fatalf("row %v has no origin", row)
		}
		if !row[0].Equal(l.Rows[li][0]) || !row[1].Equal(r.Rows[ri][1]) {
			t.Fatalf("row %v reported from l[%d]=%v, r[%d]=%v", row, li, l.Rows[li], ri, r.Rows[ri])
		}
		got = append(got, [2]int{li, ri})
	}
	if fmt.Sprint(got) != "[[1 2] [3 1] [3 4]]" {
		t.Fatalf("join origins = %v, want [[1 2] [3 1] [3 4]]", got)
	}
	if _, _, ok := JoinOrigin(NewScan(l)); ok {
		t.Fatal("a scan reports a join origin")
	}
}

// TestLimitOwnsRows is the regression for the aliasing bug: Limit used to
// return a sub-slice of the source's backing array, so appending through the
// result clobbered the source's later rows.
func TestLimitOwnsRows(t *testing.T) {
	r := New("src", NewSchema(Col("a", KindInt)))
	r.Rows = make([][]Value, 0, 8) // spare capacity makes the old clobbering deterministic
	r.Rows = append(r.Rows, []Value{Int(1)}, []Value{Int(2)}, []Value{Int(3)})

	out := Limit(r, 1)
	out.Rows = append(out.Rows, []Value{Int(99)})

	if got := r.Rows[1][0]; !got.Equal(Int(2)) {
		t.Fatalf("Limit aliased source storage: r.Rows[1][0] = %s, want 2", got)
	}
}

// TestRenameOwnsRows is the companion regression: Rename used to share the
// source's Rows slice header outright.
func TestRenameOwnsRows(t *testing.T) {
	r := New("src", NewSchema(Col("a", KindInt)))
	r.Rows = make([][]Value, 0, 8)
	r.Rows = append(r.Rows, []Value{Int(1)})

	out, err := Rename(r, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	out.Rows = append(out.Rows, []Value{Int(99)})

	if len(r.Rows) != 1 {
		t.Fatalf("Rename aliased source slice: source now has %d rows", len(r.Rows))
	}
	if cap(out.Rows) > 0 && len(r.Rows) > 1 {
		t.Fatal("Rename shares backing array with source")
	}
}

// TestIterErrorParity pins the exact error strings consumers (and tests
// downstream of them) match on.
func TestIterErrorParity(t *testing.T) {
	a := New("a", NewSchema(Col("x", KindInt)))
	b := New("b", NewSchema(Col("y", KindFloat)))

	if _, err := NewUnion(NewScan(a), NewScan(b)); err == nil || err.Error() != fmt.Sprintf("relation: union schema mismatch %s vs %s", a.Schema, b.Schema) {
		t.Fatalf("union mismatch error = %v", err)
	}
	if _, err := HashJoin(a, b); err == nil || err.Error() != "relation: join needs at least one column pair" {
		t.Fatalf("empty-pairs error = %v", err)
	}
	if _, err := HashJoin(a, b, JoinPair{"nope", "y"}); err == nil || err.Error() != `relation: join: left "a" has no column "nope"` {
		t.Fatalf("left-missing error = %v", err)
	}
	if _, err := HashJoin(a, b, JoinPair{"x", "nope"}); err == nil || err.Error() != `relation: join: right "b" has no column "nope"` {
		t.Fatalf("right-missing error = %v", err)
	}
	if _, err := Map(a, "nope", KindInt, func(v Value) Value { return v }); err == nil || err.Error() != `relation "a": no column "nope"` {
		t.Fatalf("map-missing error = %v", err)
	}
	if _, err := Rename(a, "nope", "z"); err == nil {
		t.Fatal("rename of missing column should fail")
	}
}

// TestMaterializeReportsStreamCounters checks the sampled metrics sources
// move when pipelines drain.
func TestMaterializeReportsStreamCounters(t *testing.T) {
	rows0, mats0 := StreamCounters()
	r := mkBenchRel(10)
	if _, err := Materialize(NewScan(r)); err != nil {
		t.Fatal(err)
	}
	rows1, mats1 := StreamCounters()
	if rows1 < rows0+10 {
		t.Fatalf("rows streamed %d -> %d, want +10", rows0, rows1)
	}
	if mats1 < mats0+1 {
		t.Fatalf("materializations %d -> %d, want +1", mats0, mats1)
	}
}
