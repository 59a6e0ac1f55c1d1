// Package catalog implements the dataset catalog the arbiter's metadata
// engine maintains (paper §5.1): registered datasets, their owners, and a
// time-ordered list of context snapshots capturing each dataset's data items
// as they evolve. Sellers register datasets here (bulk or one-off); the index
// builder and DoD engine consume the catalog downstream.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/relation"
)

// DatasetID identifies a registered dataset.
type DatasetID string

// Snapshot captures a dataset version at a logical time: the relation
// contents plus lightweight context (paper §5.1 "context snapshot").
type Snapshot struct {
	Version  int
	Rel      *relation.Relation
	RowCount int
	Comment  string
}

// Entry is a catalog record for one dataset.
type Entry struct {
	ID        DatasetID
	Owner     string // seller identifier
	Name      string
	Tags      []string
	snapshots []Snapshot
}

// Current returns the latest snapshot, or nil when none exists.
func (e *Entry) Current() *Snapshot {
	if len(e.snapshots) == 0 {
		return nil
	}
	return &e.snapshots[len(e.snapshots)-1]
}

// History returns all snapshots oldest-first.
func (e *Entry) History() []Snapshot { return e.snapshots }

// Catalog is a concurrency-safe registry of datasets.
type Catalog struct {
	mu      sync.RWMutex
	entries map[DatasetID]*Entry
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[DatasetID]*Entry)}
}

// Register adds a dataset under the given owner. The relation name becomes
// the dataset name; the ID must be unique.
func (c *Catalog) Register(id DatasetID, owner string, rel *relation.Relation, tags ...string) error {
	if err := rel.Validate(); err != nil {
		return fmt.Errorf("catalog: register %s: %w", id, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; ok {
		return fmt.Errorf("catalog: dataset %s already registered", id)
	}
	e := &Entry{ID: id, Owner: owner, Name: rel.Name, Tags: tags}
	e.snapshots = append(e.snapshots, Snapshot{Version: 1, Rel: rel.Clone(), RowCount: rel.NumRows(), Comment: "initial"})
	c.entries[id] = e
	return nil
}

// Update appends a new snapshot for an existing dataset. The metadata engine
// is "fully-incremental, always-on" (paper §5.1); Update is the hook source
// systems call when data changes.
func (c *Catalog) Update(id DatasetID, rel *relation.Relation, comment string) (int, error) {
	if err := rel.Validate(); err != nil {
		return 0, fmt.Errorf("catalog: update %s: %w", id, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return 0, fmt.Errorf("catalog: dataset %s not registered", id)
	}
	v := len(e.snapshots) + 1
	e.snapshots = append(e.snapshots, Snapshot{Version: v, Rel: rel.Clone(), RowCount: rel.NumRows(), Comment: comment})
	return v, nil
}

// Get returns the current relation for a dataset.
func (c *Catalog) Get(id DatasetID) (*relation.Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, fmt.Errorf("catalog: dataset %s not registered", id)
	}
	s := e.Current()
	if s == nil {
		return nil, fmt.Errorf("catalog: dataset %s has no snapshots", id)
	}
	return s.Rel, nil
}

// Entry returns the catalog record for id.
func (c *Catalog) Entry(id DatasetID) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, fmt.Errorf("catalog: dataset %s not registered", id)
	}
	return e, nil
}

// IDs returns all dataset IDs, sorted.
func (c *Catalog) IDs() []DatasetID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DatasetID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of registered datasets.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Owner returns the owner of a dataset ("" when unknown).
func (c *Catalog) Owner(id DatasetID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.entries[id]; ok {
		return e.Owner
	}
	return ""
}
