package federation

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/relation"
)

// HomeOf maps a participant name to its home shard: the shard that owns the
// participant's ledger account and intake. It is FNV-1a of the name modulo
// the shard count, a stable hash, so a participant's home shard (and the WAL
// lineage that holds its account) stays the same across restarts and
// releases.
func HomeOf(participant string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(participant))
	return int(h.Sum32() % uint32(shards))
}

// shardTicket prefixes a shard-local ticket or transaction ID with its shard
// ("s2:sub-000017"), making IDs unique at a multi-shard federation surface —
// every shard numbers its own tickets from 1. Market.ShardID applies it.
func shardTicket(shard int, id string) string {
	return fmt.Sprintf("s%d:%s", shard, id)
}

// splitShardID parses a "s<i>:<id>" federation ID back into its shard and
// local form. ok is false for bare IDs.
func splitShardID(id string) (shard int, local string, ok bool) {
	if len(id) < 3 || id[0] != 's' {
		return 0, "", false
	}
	colon := strings.IndexByte(id, ':')
	if colon < 2 {
		return 0, "", false
	}
	n, err := strconv.Atoi(id[1:colon])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, id[colon+1:], true
}

// router is the federation's column-coverage index: which shards hold a
// dataset carrying each column name. It decides, per want, whether the
// buyer's home shard can clear it alone or the want must go to the
// cross-shard coordinator. It also keeps who owns each dataset ID, so a
// share cannot reuse an ID a seller on another shard holds. The index is advisory routing state, not ground
// truth — it is rebuilt from the shard catalogs at Open and updated
// optimistically at share time (a share applies at its shard's next epoch;
// routing a want by a column that is still in intake just means the want
// waits open at its home shard a little longer, exactly like a single
// market). Transform-derived columns are invisible here, so wants for them
// stay at the home shard, where the DoD engine's transforms live. With one
// shard nothing can span, so the router is inert: it indexes nothing on the
// share path and seeds nothing at boot.
type router struct {
	shards int

	mu     sync.RWMutex
	cols   map[string]map[int]bool      // column name -> shards carrying it
	owners map[catalog.DatasetID]string // dataset ID -> the seller who shared it
}

func newRouter(shards int) *router {
	return &router{shards: shards, cols: map[string]map[int]bool{}, owners: map[catalog.DatasetID]string{}}
}

// claim records seller as id's owner, or refuses the ID when a different
// seller on another shard already holds it. The claim is taken at submit
// time, like the column index: a share that then fails at its shard's epoch
// keeps the ID claimed.
func (r *router) claim(id catalog.DatasetID, seller string) error {
	if r.shards <= 1 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, ok := r.owners[id]
	if ok && owner != seller && HomeOf(owner, r.shards) != HomeOf(seller, r.shards) {
		return fmt.Errorf("federation: dataset %q is already shared by %s on shard %d", id, owner, HomeOf(owner, r.shards))
	}
	if !ok {
		r.owners[id] = seller
	}
	return nil
}

// addRelation indexes a shared relation's schema for a shard.
func (r *router) addRelation(shard int, rel *relation.Relation) {
	if rel == nil || r.shards <= 1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range rel.Schema.Names() {
		if r.cols[n] == nil {
			r.cols[n] = map[int]bool{}
		}
		r.cols[n][shard] = true
	}
}

// seed rebuilds the index from the shard catalogs (used at Open, after
// recovery replayed every shard's WAL).
func (r *router) seed(shards []*Shard) {
	if r.shards <= 1 {
		return
	}
	for _, sh := range shards {
		for _, d := range sh.Platform.DatasetStates() {
			r.addRelation(sh.Index, d.Relation)
			r.owners[catalog.DatasetID(d.ID)] = d.Owner
		}
	}
}

// locate reports whether a column name is indexed on the home shard, and
// whether on any other. Caller holds r.mu.
func (r *router) locate(name string, home int) (atHome, elsewhere bool) {
	set := r.cols[name]
	others := len(set)
	if set[home] {
		others--
	}
	return set[home], others > 0
}

// spans decides whether a want must go to the cross-shard coordinator: true
// when some wanted column is missing from the home shard's catalog but
// present on another shard. Wants whose missing columns are unknown
// everywhere stay home — local transforms may yet derive them, and keeping
// them at the home shard preserves its unmet-demand signals.
func (r *router) spans(want dod.Want, home int) bool {
	if r.shards <= 1 {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, col := range want.Columns {
		atHome, elsewhere := r.locate(col, home)
		for _, alias := range want.Aliases[col] {
			h, e := r.locate(alias, home)
			atHome, elsewhere = atHome || h, elsewhere || e
		}
		if !atHome && elsewhere {
			return true
		}
	}
	return false
}
