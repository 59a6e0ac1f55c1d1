// Package workloads holds the benchmark's frozen parameter table and its
// seeded request-script generators. A script is everything dmload sends to a
// gateway — set-up registrations and shares, then warm-up, steady (open-loop,
// Poisson) and burst traffic — generated from the seed alone, before the
// gateway exists, so it cannot depend on gateway behaviour. The package
// imports nothing from the system under test: bodies are written in the wire
// format documented by internal/dmms, so the generator survives refactors
// that keep the HTTP surface.
package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"
)

// Spec is one row of the frozen parameter table. Every field is identical on
// both sides of any A/B. BENCHMARK.json says why each workload exists;
// bench/README.md holds the calibration evidence behind Rate and BurstRate.
type Spec struct {
	Name string
	// Flags are the gateway flags that distinguish the workload; the common
	// ones (CommonFlags) precede them.
	Flags  []string
	Shards int
	// Rate is the steady phase's fixed open-loop arrival rate (requests/s):
	// the round number that keeps the workload's busy resource about 60 %
	// utilised on the seed.
	Rate float64
	// Limit is the latency limit: an accepted request not settled within it
	// counts as failed, not as a latency sample.
	Limit time.Duration
	// BurstRate sizes the drain burst: N_burst = BurstRate x drain seconds,
	// so the burst lasts about the drain share of the run on the seed.
	BurstRate float64
	// ShareEvery, when > 0, interleaves one fresh share per that many
	// requests (catalog churn).
	ShareEvery int
	// Sources is the number of datasets a settled mashup must list (exact for
	// cover, the minimum elsewhere).
	Sources int
}

// CommonFlags are passed to every gateway the benchmark boots, before the
// workload's own Flags; dmload appends -addr, -wal-dir and -metrics.
var CommonFlags = []string{"-design", "posted-baseline", "-epoch", "100ms", "-batch", "64"}

// Phase shares of one run of --seconds S: the steady phase lasts SteadyShare*S,
// the drain burst is sized for DrainShare*S, and WarmShare*S of discarded
// traffic precedes both.
const (
	SteadyShare = 0.6
	DrainShare  = 0.4
	WarmShare   = 0.05
)

// Table is the frozen parameter table, in report order.
var Table = []Spec{
	{
		Name:   "cover",
		Flags:  []string{"-shards", "1"},
		Shards: 1, Rate: 3000, Limit: 500 * time.Millisecond, BurstRate: 7500, Sources: 1,
	},
	{
		// Builds run inline (-dod-workers 0): with a pool of 2 on the
		// gateway's 2 cores, drain capacity spread 10-18 % run to run and the
		// senders ran 24-62 ms late at p99 (bench/README.md, calibration).
		Name:   "churn-join",
		Flags:  []string{"-shards", "1"},
		Shards: 1, Rate: 500, Limit: 500 * time.Millisecond, BurstRate: 6000, ShareEvery: 64, Sources: 2,
	},
	{
		Name:   "fsync-always",
		Flags:  []string{"-shards", "1", "-fsync", "always"},
		Shards: 1, Rate: 1000, Limit: 500 * time.Millisecond, BurstRate: 2200, Sources: 1,
	},
	{
		Name:   "fed-cross",
		Flags:  []string{"-shards", "2"},
		Shards: 2, Rate: 40, Limit: 2 * time.Second, BurstRate: 100, Sources: 2,
	},
}

// Lookup returns the table row for a workload name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Table {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Op is one HTTP POST of a script.
type Op struct {
	// Due is the offset from the phase start at which the op is due (zero
	// throughout set-up and the burst, which are sent back to back).
	Due  time.Duration
	Path string
	Body []byte
	// Group indexes Script.Groups for requests; -1 for registrations and
	// shares.
	Group int
}

// Script is a workload's complete, seed-determined traffic.
type Script struct {
	Spec   Spec
	Setup  []Op // participants, then base datasets
	Warm   []Op
	Steady []Op
	Burst  []Op
	// Groups are the want groups' column lists; Providers maps each wanted
	// column only one base carries to that base's dataset ID.
	Groups    [][]string
	Providers map[string]string
	// Accounts are all participant names that hold a ledger account after
	// set-up (buyers, then sellers); Funded is the total registered funds.
	Accounts []string
	Funded   float64
}

// Hash fingerprints every op of the script (phase, due time, path, body).
func (s *Script) Hash() string {
	h := sha256.New()
	var n [8]byte
	for i, phase := range [][]Op{s.Setup, s.Warm, s.Steady, s.Burst} {
		for _, op := range phase {
			binary.LittleEndian.PutUint64(n[:], uint64(i))
			h.Write(n[:])
			binary.LittleEndian.PutUint64(n[:], uint64(op.Due))
			h.Write(n[:])
			h.Write([]byte(op.Path))
			h.Write([]byte{0})
			h.Write(op.Body)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HomeOf mirrors federation.HomeOf (FNV-1a of the name modulo the shard
// count); the package test pins the two together.
func HomeOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// pinnedName brute-forces a participant name that homes to the given shard.
func pinnedName(prefix string, shard, shards int) string {
	for i := 0; ; i++ {
		n := prefix + strconv.Itoa(i)
		if HomeOf(n, shards) == shard {
			return n
		}
	}
}

const (
	baseRows   = 400
	freshRows  = 30
	buyerFunds = 1e9
	offerPrice = 150
)

type wireRelation struct {
	Name  string     `json:"name"`
	Cols  []string   `json:"cols"`
	Kinds []string   `json:"kinds"`
	Rows  [][]string `json:"rows"`
}

type wireDataset struct {
	Seller   string       `json:"seller"`
	ID       string       `json:"id"`
	Relation wireRelation `json:"relation"`
	License  string       `json:"license"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled here
	}
	return b
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// baseOp shares base s: {a int, c float, w<s> float}. Column a is the shared
// join key (0..rows-1 on every base); c and w<s> live in per-base value
// ranges, so a is the only join edge between bases.
func baseOp(seller string, s int, rng *rand.Rand) Op {
	id := seller + "/base"
	rel := wireRelation{Name: id, Cols: []string{"a", "c", "w" + strconv.Itoa(s)},
		Kinds: []string{"int", "float", "float"}}
	for i := 0; i < baseRows; i++ {
		c := float64(s+1)*10000 + float64(i)*0.5
		w := float64(s+10)*10000 + float64(rng.Intn(900000))/100
		rel.Rows = append(rel.Rows, []string{strconv.Itoa(i), fmtFloat(c), fmtFloat(w)})
	}
	return Op{Path: "/async/datasets", Group: -1,
		Body: mustJSON(wireDataset{Seller: seller, ID: id, Relation: rel, License: "open"})}
}

// FreshShare is churn share k: 30 rows whose column names and value ranges are
// disjoint from the bases and from every other fresh share, so it bumps the
// catalog version (invalidating every cached candidate set) without adding a
// provider or a join edge.
func FreshShare(seller string, k int) Op {
	id := fmt.Sprintf("x%d/d", k)
	rel := wireRelation{Name: id, Cols: []string{fmt.Sprintf("xk%d", k), fmt.Sprintf("xv%d", k)},
		Kinds: []string{"int", "float"}}
	lo := 10000000 + k*1000
	for i := 0; i < freshRows; i++ {
		rel.Rows = append(rel.Rows, []string{strconv.Itoa(lo + i), fmtFloat(float64(lo+i) + 0.25)})
	}
	return Op{Path: "/async/datasets", Group: -1,
		Body: mustJSON(wireDataset{Seller: seller, ID: id, Relation: rel, License: "open"})}
}

func registerOp(name string, funds float64) Op {
	return Op{Path: "/async/participants", Group: -1,
		Body: mustJSON(map[string]any{"name": name, "funds": funds})}
}

func requestBody(buyer string, cols []string) []byte {
	return mustJSON(map[string]any{
		"buyer":   buyer,
		"columns": cols,
		"task":    map[string]any{"kind": "coverage", "want_rows": 1},
		"curve":   []map[string]float64{{"min_satisfaction": 0.5, "price": offerPrice}},
	})
}

// market is a workload's fixed population: who buys, who sells, which want
// groups each buyer may draw from.
type market struct {
	buyers  []string
	sellers []string
	groups  [][]string
	// groupsOf lists, per buyer, the indexes of the groups it draws from.
	groupsOf [][]int
}

func wcol(s int) string { return "w" + strconv.Itoa(s) }

func allGroups(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// singleShardMarket is the cover / churn-join / fsync-always population: 6
// bases and 16 buyers on one arbiter.
func singleShardMarket(join bool) market {
	const bases, buyers = 6, 16
	var m market
	for s := 0; s < bases; s++ {
		m.sellers = append(m.sellers, "s"+strconv.Itoa(s))
	}
	if join {
		// 12 groups spanning two bases, 4 spanning three: only a join on a
		// covers them.
		for _, step := range []int{1, 2} {
			for i := 0; i < bases; i++ {
				m.groups = append(m.groups, []string{"a", wcol(i), wcol((i + step) % bases)})
			}
		}
		for _, t := range [][3]int{{0, 2, 4}, {1, 3, 5}, {0, 1, 3}, {2, 4, 5}} {
			m.groups = append(m.groups, []string{"a", wcol(t[0]), wcol(t[1]), wcol(t[2])})
		}
	} else {
		for s := 0; s < bases; s++ {
			m.groups = append(m.groups, []string{"a", wcol(s)})
		}
	}
	for i := 0; i < buyers; i++ {
		m.buyers = append(m.buyers, fmt.Sprintf("b%02d", i))
		m.groupsOf = append(m.groupsOf, allGroups(len(m.groups)))
	}
	return m
}

// fedMarket is the fed-cross population: 4 sellers and 8 buyers hash-pinned
// two / four per shard; every group pairs a base on the buyer's home shard
// with one on the other shard, so every want spans shards.
func fedMarket() market {
	const shards, sellers, buyers = 2, 4, 8
	var m market
	for s := 0; s < sellers; s++ {
		m.sellers = append(m.sellers, pinnedName(fmt.Sprintf("fs%d-", s), s%shards, shards))
	}
	groupsAt := make([][]int, shards)
	for home := 0; home < sellers; home++ {
		for remote := 0; remote < sellers; remote++ {
			if home%shards == remote%shards {
				continue
			}
			groupsAt[home%shards] = append(groupsAt[home%shards], len(m.groups))
			m.groups = append(m.groups, []string{"a", wcol(home), wcol(remote)})
		}
	}
	for i := 0; i < buyers; i++ {
		m.buyers = append(m.buyers, pinnedName(fmt.Sprintf("fb%d-", i), i%shards, shards))
		m.groupsOf = append(m.groupsOf, groupsAt[i%shards])
	}
	return m
}

// Generate builds the script of a workload (a Table row, or a copy with a
// calibration override) for one run of the given length. Phase lengths follow
// the share constants; the steady phase's arrivals are Poisson at the spec's
// Rate. The same (spec, seed, seconds) always yields the same script.
//
// Content (base values, buyer and group of each request) and arrival times
// come from two separate streams of the seed, so cover and fsync-always —
// same population, different rates — send the same sequence of bodies and
// differ only in when and how many.
func Generate(spec Spec, seed int64, seconds float64) (*Script, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("workloads: seconds must be positive, got %g", seconds)
	}
	var m market
	switch spec.Name {
	case "cover", "fsync-always":
		m = singleShardMarket(false)
	case "churn-join":
		m = singleShardMarket(true)
	case "fed-cross":
		m = fedMarket()
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q", spec.Name)
	}
	content := rand.New(rand.NewSource(seed))
	arrivals := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	sc := &Script{Spec: spec, Groups: m.groups, Providers: map[string]string{}}
	for _, b := range m.buyers {
		sc.Setup = append(sc.Setup, registerOp(b, buyerFunds))
		sc.Funded += buyerFunds
	}
	sc.Accounts = append(append(sc.Accounts, m.buyers...), m.sellers...)
	for s, seller := range m.sellers {
		sc.Setup = append(sc.Setup, baseOp(seller, s, content))
		sc.Providers[wcol(s)] = seller + "/base"
	}

	// Request bodies depend only on (buyer, group): marshal each once.
	bodies := make([][][]byte, len(m.buyers))
	for b, buyer := range m.buyers {
		bodies[b] = make([][]byte, len(m.groups))
		for _, g := range m.groupsOf[b] {
			bodies[b][g] = requestBody(buyer, m.groups[g])
		}
	}
	fresh := 0
	requests := 0
	emit := func(ops []Op, due time.Duration) []Op {
		b := content.Intn(len(m.buyers))
		g := m.groupsOf[b][content.Intn(len(m.groupsOf[b]))]
		ops = append(ops, Op{Due: due, Path: "/async/requests", Body: bodies[b][g], Group: g})
		requests++
		if spec.ShareEvery > 0 && requests%spec.ShareEvery == 0 {
			fresh++
			share := FreshShare(m.sellers[0], fresh)
			share.Due = due
			ops = append(ops, share)
		}
		return ops
	}
	poisson := func(d float64) []Op {
		var ops []Op
		for t := arrivals.ExpFloat64() / spec.Rate; t < d; t += arrivals.ExpFloat64() / spec.Rate {
			ops = emit(ops, time.Duration(t*float64(time.Second)))
		}
		return ops
	}
	sc.Warm = poisson(WarmShare * seconds)
	sc.Steady = poisson(SteadyShare * seconds)
	nBurst := int(spec.BurstRate*DrainShare*seconds + 0.5)
	for i := 0; i < nBurst; i++ {
		sc.Burst = emit(sc.Burst, 0)
	}
	return sc, nil
}
