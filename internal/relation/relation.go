package relation

import (
	"fmt"
	"strings"
)

// Relation is an in-memory table: a named schema plus rows. Rows are slices
// of Values aligned with the schema. A Relation is the unit sellers share
// with the arbiter and the shape of every mashup the arbiter builds.
type Relation struct {
	Name   string
	Schema Schema
	Rows   [][]Value
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema.Clone()}
}

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return len(r.Rows) }

// Append validates and appends a row. The row is stored directly (not
// copied); callers must not reuse the slice.
func (r *Relation) Append(row []Value) error {
	if len(row) != len(r.Schema) {
		return fmt.Errorf("relation %q: row arity %d != schema arity %d", r.Name, len(row), len(r.Schema))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if !kindCompatible(r.Schema[i].Kind, v.Kind()) {
			return fmt.Errorf("relation %q: column %q expects %v, got %v", r.Name, r.Schema[i].Name, r.Schema[i].Kind, v.Kind())
		}
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustAppend appends a row and panics on schema mismatch. Intended for tests
// and generators where the schema is statically known.
func (r *Relation) MustAppend(row ...Value) {
	if err := r.Append(row); err != nil {
		panic(err)
	}
}

func kindCompatible(col, val Kind) bool {
	if col == val {
		return true
	}
	// Ints fit in float columns; multi cells may hold anything.
	if col == KindFloat && val == KindInt {
		return true
	}
	if col == KindMulti {
		return true
	}
	return false
}

// Column returns the values of the named column, or an error.
func (r *Relation) Column(name string) ([]Value, error) {
	i := r.Schema.IndexOf(name)
	if i < 0 {
		return nil, fmt.Errorf("relation %q: no column %q", r.Name, name)
	}
	out := make([]Value, len(r.Rows))
	for j, row := range r.Rows {
		out[j] = row[i]
	}
	return out, nil
}

// Cell returns the value at (row, column name).
func (r *Relation) Cell(row int, name string) (Value, error) {
	i := r.Schema.IndexOf(name)
	if i < 0 {
		return Null(), fmt.Errorf("relation %q: no column %q", r.Name, name)
	}
	if row < 0 || row >= len(r.Rows) {
		return Null(), fmt.Errorf("relation %q: row %d out of range [0,%d)", r.Name, row, len(r.Rows))
	}
	return r.Rows[row][i], nil
}

// Clone deep-copies the relation (rows are copied; Values are immutable).
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.Schema)
	out.Rows = make([][]Value, len(r.Rows))
	for i, row := range r.Rows {
		cp := make([]Value, len(row))
		copy(cp, row)
		out.Rows[i] = cp
	}
	return out
}

// Equal reports whether two relations have equal schemas and equal rows in
// order.
func (r *Relation) Equal(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) || len(r.Rows) != len(o.Rows) {
		return false
	}
	for i := range r.Rows {
		for j := range r.Rows[i] {
			if !r.Rows[i][j].Equal(o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Validate checks schema validity and row arity/type conformance.
func (r *Relation) Validate() error {
	if err := r.Schema.Validate(); err != nil {
		return fmt.Errorf("relation %q: %w", r.Name, err)
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Schema) {
			return fmt.Errorf("relation %q: row %d arity %d != %d", r.Name, i, len(row), len(r.Schema))
		}
		for j, v := range row {
			if !v.IsNull() && !kindCompatible(r.Schema[j].Kind, v.Kind()) {
				return fmt.Errorf("relation %q: row %d column %q: kind %v incompatible with %v",
					r.Name, i, r.Schema[j].Name, v.Kind(), r.Schema[j].Kind)
			}
		}
	}
	return nil
}

// String renders the relation as an aligned text table, truncated to 20 rows.
func (r *Relation) String() string {
	const maxRows = 20
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s [%d rows]\n", r.Name, r.Schema, len(r.Rows))
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		widths[i] = len(c.Name)
	}
	n := len(r.Rows)
	if n > maxRows {
		n = maxRows
	}
	cells := make([][]string, n)
	for i := 0; i < n; i++ {
		cells[i] = make([]string, len(r.Schema))
		for j, v := range r.Rows[i] {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	for j, c := range r.Schema {
		fmt.Fprintf(&sb, "%-*s ", widths[j], c.Name)
	}
	sb.WriteByte('\n')
	for i := 0; i < n; i++ {
		for j := range r.Schema {
			fmt.Fprintf(&sb, "%-*s ", widths[j], cells[i][j])
		}
		sb.WriteByte('\n')
	}
	if len(r.Rows) > maxRows {
		fmt.Fprintf(&sb, "... (%d more rows)\n", len(r.Rows)-maxRows)
	}
	return sb.String()
}

// MissingRatio returns the fraction of NULL cells — one of the intrinsic
// properties buyers may constrain in WTP-functions (paper §3.2.2.1).
func (r *Relation) MissingRatio() float64 {
	if len(r.Rows) == 0 || len(r.Schema) == 0 {
		return 0
	}
	nulls := 0
	for _, row := range r.Rows {
		for _, v := range row {
			if v.IsNull() {
				nulls++
			}
		}
	}
	return float64(nulls) / float64(len(r.Rows)*len(r.Schema))
}
