package relation

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// WriteCSV writes the relation as CSV with a two-row header: column names,
// then column kinds. The kind row lets ReadCSV round-trip exactly.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return fmt.Errorf("relation %q: write csv header: %w", r.Name, err)
	}
	kinds := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		kinds[i] = c.Kind.String()
	}
	if err := cw.Write(kinds); err != nil {
		return fmt.Errorf("relation %q: write csv kinds: %w", r.Name, err)
	}
	rec := make([]string, len(r.Schema))
	for _, row := range r.Rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation %q: write csv row: %w", r.Name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation written by WriteCSV (name row, kind row, data).
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	kindRow, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv kinds: %w", err)
	}
	if len(kindRow) != len(header) {
		return nil, fmt.Errorf("relation: csv kinds arity %d != header %d", len(kindRow), len(header))
	}
	schema := make(Schema, len(header))
	for i, h := range header {
		k, ok := ParseKind(kindRow[i])
		if !ok {
			return nil, fmt.Errorf("relation: unknown kind %q in csv", kindRow[i])
		}
		schema[i] = Column{Name: h, Kind: k}
	}
	r := New(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv row: %w", err)
		}
		row := make([]Value, len(schema))
		for i, s := range rec {
			v, err := ParseValue(schema[i].Kind, s)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := r.Append(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ReadCSVInferred parses plain CSV (single header row). A column takes the
// kind of its first non-empty cell, or string if any later cell does not
// parse as that kind; every row is then parsed against that one schema.
// Sellers pointing the platform at raw files use this path (paper §4.2 Data
// Packaging).
func ReadCSVInferred(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv row: %w", err)
		}
		rows = append(rows, rec)
	}
	schema := make(Schema, len(header))
	for i, h := range header {
		schema[i] = Column{Name: h, Kind: inferColumnKind(rows, i)}
	}
	r := New(name, schema)
	for _, rec := range rows {
		row := make([]Value, len(schema))
		for i, s := range rec {
			v, err := ParseValue(schema[i].Kind, s)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := r.Append(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// inferColumnKind is the kind InferValue gives column i's first non-empty
// cell, or string when a later cell does not parse as that kind (or every
// cell is empty).
func inferColumnKind(rows [][]string, i int) Kind {
	kind := KindNull
	for _, rec := range rows {
		s := rec[i]
		if s == "" {
			continue
		}
		if kind == KindNull {
			kind = InferValue(s).Kind()
		} else if _, err := ParseValue(kind, s); err != nil {
			return KindString
		}
	}
	if kind == KindNull {
		return KindString
	}
	return kind
}

// jsonRelation is the wire form used by MarshalJSON.
type jsonRelation struct {
	Name   string     `json:"name"`
	Cols   []string   `json:"cols"`
	Kinds  []string   `json:"kinds"`
	Values [][]string `json:"rows"`
}

// MarshalJSON encodes the relation in a compact string-encoded form that the
// DMMS HTTP layer ships between buyer/seller platforms and the arbiter.
func (r *Relation) MarshalJSON() ([]byte, error) {
	jr := jsonRelation{Name: r.Name, Cols: r.Schema.Names()}
	jr.Kinds = make([]string, len(r.Schema))
	for i, c := range r.Schema {
		jr.Kinds[i] = c.Kind.String()
	}
	jr.Values = make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rec := make([]string, len(row))
		for j, v := range row {
			if v.IsNull() {
				rec[j] = ""
			} else {
				rec[j] = v.String()
			}
		}
		jr.Values[i] = rec
	}
	return json.Marshal(jr)
}

// UnmarshalJSON decodes the MarshalJSON form.
func (r *Relation) UnmarshalJSON(data []byte) error {
	var jr jsonRelation
	if err := json.Unmarshal(data, &jr); err != nil {
		return err
	}
	if len(jr.Kinds) != len(jr.Cols) {
		return fmt.Errorf("relation: json kinds arity %d != cols %d", len(jr.Kinds), len(jr.Cols))
	}
	schema := make(Schema, len(jr.Cols))
	for i := range jr.Cols {
		k, ok := ParseKind(jr.Kinds[i])
		if !ok {
			return fmt.Errorf("relation: unknown kind %q in json", jr.Kinds[i])
		}
		schema[i] = Column{Name: jr.Cols[i], Kind: k}
	}
	nr := New(jr.Name, schema)
	for n, rec := range jr.Values {
		if len(rec) != len(schema) {
			return fmt.Errorf("relation: json row %d has %d values, schema has %d", n, len(rec), len(schema))
		}
		row := make([]Value, len(schema))
		for i, s := range rec {
			v, err := ParseValue(schema[i].Kind, s)
			if err != nil {
				return err
			}
			row[i] = v
		}
		if err := nr.Append(row); err != nil {
			return err
		}
	}
	*r = *nr
	return nil
}
