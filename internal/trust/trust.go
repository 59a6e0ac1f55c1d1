// Package trust implements data trusts — the "coalitions of users who
// collectively choose to relinquish/sell certain personal information to
// benefit together" of paper §4.5 (citing the data-trust literature). An
// individual's rows are rarely worth much alone; pooled with other members'
// rows they form a sellable dataset. The trust counts the rows each member
// contributed, sells the pooled relation into the market as a single seller,
// and divides revenue among members in proportion to those counts.
package trust

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/relation"
)

// Trust is a member-governed data pool.
type Trust struct {
	Name string

	mu     sync.Mutex
	schema relation.Schema
	rows   [][]relation.Value
	// member -> rows contributed
	contributions map[string]int
	members       []string
	// MinMembers gates selling: below quorum the pool stays private
	// (individual data alone "is not worth much in itself", §4.5 — and
	// selling a one-member pool would deanonymize that member).
	MinMembers int
}

// New creates a trust pooling rows of the given schema.
func New(name string, schema relation.Schema, minMembers int) (*Trust, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if minMembers < 1 {
		minMembers = 1
	}
	return &Trust{
		Name:          name,
		schema:        schema.Clone(),
		contributions: map[string]int{},
		MinMembers:    minMembers,
	}, nil
}

// Join adds a member's rows to the pool. Rows must match the trust schema.
func (t *Trust) Join(member string, rows [][]relation.Value) error {
	if member == "" {
		return fmt.Errorf("trust: empty member name")
	}
	probe := relation.New("probe", t.schema)
	for _, row := range rows {
		if err := probe.Append(row); err != nil {
			return fmt.Errorf("trust %s: member %s: %w", t.Name, member, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.contributions[member]; !ok {
		t.members = append(t.members, member)
		sort.Strings(t.members)
	}
	t.contributions[member] += len(rows)
	t.rows = append(t.rows, rows...)
	return nil
}

// Members returns current member names, sorted.
func (t *Trust) Members() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.members))
	copy(out, t.members)
	return out
}

// Pool materializes the pooled relation for sale under the trust's name.
// It fails below the member quorum.
func (t *Trust) Pool() (*relation.Relation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.members) < t.MinMembers {
		return nil, fmt.Errorf("trust %s: %d members below quorum %d", t.Name, len(t.members), t.MinMembers)
	}
	r := relation.New(t.Name, t.schema)
	r.Rows = make([][]relation.Value, len(t.rows))
	for i, row := range t.rows {
		cp := make([]relation.Value, len(row))
		copy(cp, row)
		r.Rows[i] = cp
	}
	return r, nil
}

// SplitByRows divides revenue in proportion to rows contributed.
func (t *Trust) SplitByRows(revenue float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	if len(t.rows) == 0 {
		return out
	}
	for m, n := range t.contributions {
		out[m] = revenue * float64(n) / float64(len(t.rows))
	}
	return out
}
