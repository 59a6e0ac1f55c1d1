// Package trust implements data trusts — the "coalitions of users who
// collectively choose to relinquish/sell certain personal information to
// benefit together" of paper §4.5 (citing the data-trust literature). An
// individual's rows are rarely worth much alone; pooled with other members'
// rows they form a sellable dataset. The trust tracks which member
// contributed which rows, sells the pooled relation into the market as a
// single seller, and divides revenue among members equally or in proportion
// to the rows each contributed.
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

	mu      sync.Mutex
	schema  relation.Schema
	rows    [][]relation.Value
	rowNext int
	// member -> row indices contributed
	contributions map[string][]int
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
		contributions: map[string][]int{},
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
	for _, row := range rows {
		t.contributions[member] = append(t.contributions[member], t.rowNext)
		t.rows = append(t.rows, row)
		t.rowNext++
	}
	return nil
}

// Leave removes a member and withdraws their rows — the control over one's
// own data that data trusts exist to provide.
func (t *Trust) Leave(member string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	idxs, ok := t.contributions[member]
	if !ok {
		return fmt.Errorf("trust %s: %s is not a member", t.Name, member)
	}
	drop := map[int]bool{}
	for _, i := range idxs {
		drop[i] = true
	}
	var newRows [][]relation.Value
	remap := map[int]int{}
	for i, row := range t.rows {
		if drop[i] {
			continue
		}
		remap[i] = len(newRows)
		newRows = append(newRows, row)
	}
	t.rows = newRows
	delete(t.contributions, member)
	for m, is := range t.contributions {
		out := is[:0]
		for _, i := range is {
			if j, ok := remap[i]; ok {
				out = append(out, j)
			}
		}
		t.contributions[m] = out
	}
	for i, m := range t.members {
		if m == member {
			t.members = append(t.members[:i], t.members[i+1:]...)
			break
		}
	}
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

// NumRows returns the pooled row count.
func (t *Trust) NumRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
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

// SplitEqual divides revenue equally among members.
func (t *Trust) SplitEqual(revenue float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	if len(t.members) == 0 {
		return out
	}
	share := revenue / float64(len(t.members))
	for _, m := range t.members {
		out[m] = share
	}
	return out
}

// SplitByRows divides revenue in proportion to rows contributed.
func (t *Trust) SplitByRows(revenue float64) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	total := 0
	for _, is := range t.contributions {
		total += len(is)
	}
	if total == 0 {
		return out
	}
	for m, is := range t.contributions {
		out[m] = revenue * float64(len(is)) / float64(total)
	}
	return out
}
