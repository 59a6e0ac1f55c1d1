package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/relation"
)

// manifestEntry records one dataset's metadata in the on-disk manifest.
type manifestEntry struct {
	ID       string   `json:"id"`
	Owner    string   `json:"owner"`
	Name     string   `json:"name"`
	Tags     []string `json:"tags,omitempty"`
	Versions int      `json:"versions"`
	Comments []string `json:"comments"`
}

// SaveDir persists the catalog to a directory: a manifest.json plus one CSV
// per dataset version (the current snapshot format the Fig. 2 sink writes).
// The directory is created if missing; existing contents are overwritten.
func (c *Catalog) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("catalog: save: %w", err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var manifest []manifestEntry
	for _, id := range c.idsLocked() {
		e := c.entries[id]
		me := manifestEntry{
			ID: string(id), Owner: e.Owner, Name: e.Name, Tags: e.Tags,
			Versions: len(e.snapshots),
		}
		for _, s := range e.snapshots {
			me.Comments = append(me.Comments, s.Comment)
			path := filepath.Join(dir, versionFile(string(id), s.Version))
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("catalog: save %s: %w", id, err)
			}
			err = s.Rel.WriteCSV(f)
			cerr := f.Close()
			if err != nil {
				return fmt.Errorf("catalog: save %s v%d: %w", id, s.Version, err)
			}
			if cerr != nil {
				return cerr
			}
		}
		manifest = append(manifest, me)
	}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

func (c *Catalog) idsLocked() []DatasetID {
	out := make([]DatasetID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	// Deterministic order for reproducible manifests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// versionFile encodes a dataset version's CSV filename; path separators in
// IDs are flattened.
func versionFile(id string, version int) string {
	safe := strings.NewReplacer("/", "__", "\\", "__", "..", "_").Replace(id)
	return fmt.Sprintf("%s.v%d.csv", safe, version)
}

// LoadDir restores a catalog saved by SaveDir, including version history.
func LoadDir(dir string) (*Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("catalog: load: %w", err)
	}
	var manifest []manifestEntry
	if err := json.Unmarshal(data, &manifest); err != nil {
		return nil, fmt.Errorf("catalog: load manifest: %w", err)
	}
	c := New()
	for _, me := range manifest {
		id := DatasetID(me.ID)
		for v := 1; v <= me.Versions; v++ {
			f, err := os.Open(filepath.Join(dir, versionFile(me.ID, v)))
			if err != nil {
				return nil, fmt.Errorf("catalog: load %s v%d: %w", me.ID, v, err)
			}
			rel, err := relation.ReadCSV(me.Name, f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("catalog: load %s v%d: %w", me.ID, v, err)
			}
			comment := ""
			if v-1 < len(me.Comments) {
				comment = me.Comments[v-1]
			}
			if v == 1 {
				if err := c.Register(id, me.Owner, rel, me.Tags...); err != nil {
					return nil, err
				}
			} else if _, err := c.Update(id, rel, comment); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}
