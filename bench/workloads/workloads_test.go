package workloads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/federation"
)

// pinned are the script fingerprints of (seed 1, 4 s). A change here is a
// change of the benchmark's inputs: every recorded baseline is void after it.
var pinned = map[string]string{
	"cover":        "8058d9dd2872c9f15ea8e2a59b29a45a7e1b79cacb0a3e8b0c5496fd2ee012cf",
	"churn-join":   "5e829f72ebd40efdf2fa3c57b1a05c5330da65810283292bdba974cf26043a2a",
	"fsync-always": "84ad3db63ef2e4c79f10d73a7a27fd12536a942098646ade8e0dd8984a91330d",
	"fed-cross":    "5c5000b331e28089a7da9834d42da52fd234fa78c7cbc2ea8d4a510f75f9c6d2",
}

func mustGenerate(t *testing.T, name string, seed int64, seconds float64) *Script {
	t.Helper()
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sc, err := Generate(spec, seed, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSameSeedSameScript(t *testing.T) {
	for _, spec := range Table {
		a := mustGenerate(t, spec.Name, 1, 4).Hash()
		if b := mustGenerate(t, spec.Name, 1, 4).Hash(); a != b {
			t.Errorf("%s: two generations of seed 1 differ", spec.Name)
		}
		if a != pinned[spec.Name] {
			t.Errorf("%s: script hash %s, pinned %s", spec.Name, a, pinned[spec.Name])
		}
		if c := mustGenerate(t, spec.Name, 2, 4).Hash(); a == c {
			t.Errorf("%s: seeds 1 and 2 give the same script", spec.Name)
		}
	}
}

// bodies lists a script's request and share bodies in send order.
func bodies(sc *Script) [][]byte {
	var out [][]byte
	for _, phase := range [][]Op{sc.Setup, sc.Warm, sc.Steady, sc.Burst} {
		for _, op := range phase {
			out = append(out, op.Body)
		}
	}
	return out
}

// fsync-always must send what cover sends: the same set-up and the same
// sequence of requests, only on its own (slower) clock and fewer of them.
func TestFsyncAlwaysSendsCoversScript(t *testing.T) {
	cover, fsync := bodies(mustGenerate(t, "cover", 7, 4)), bodies(mustGenerate(t, "fsync-always", 7, 4))
	if len(fsync) == 0 || len(fsync) > len(cover) {
		t.Fatalf("fsync-always sends %d bodies, cover %d", len(fsync), len(cover))
	}
	for i := range fsync {
		if !bytes.Equal(fsync[i], cover[i]) {
			t.Fatalf("body %d differs:\n%s\n%s", i, fsync[i], cover[i])
		}
	}
}

func TestHomeOfMatchesFederation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("p%d-%d", i, rng.Int63())
		for _, shards := range []int{1, 2, 4} {
			if got, want := HomeOf(name, shards), federation.HomeOf(name, shards); got != want {
				t.Fatalf("HomeOf(%q, %d) = %d, federation says %d", name, shards, got, want)
			}
		}
	}
}

// Every fed-cross want must span shards: one wanted column lives on the
// buyer's home shard, another only on the other shard.
func TestFedCrossWantsSpanShards(t *testing.T) {
	sc := mustGenerate(t, "fed-cross", 3, 4)
	shards := sc.Spec.Shards
	colShard := map[string]int{}
	sellers := map[int]int{}
	for _, op := range sc.Setup {
		if op.Path != "/async/datasets" {
			continue
		}
		var d wireDataset
		if err := json.Unmarshal(op.Body, &d); err != nil {
			t.Fatal(err)
		}
		home := federation.HomeOf(d.Seller, shards)
		sellers[home]++
		colShard[d.Relation.Cols[2]] = home
	}
	if sellers[0] != 2 || sellers[1] != 2 {
		t.Errorf("sellers per shard = %v, want two each", sellers)
	}
	buyers := map[int]map[string]bool{0: {}, 1: {}}
	for _, op := range append(append([]Op{}, sc.Steady...), sc.Burst...) {
		var r struct {
			Buyer   string   `json:"buyer"`
			Columns []string `json:"columns"`
		}
		if err := json.Unmarshal(op.Body, &r); err != nil {
			t.Fatal(err)
		}
		home := federation.HomeOf(r.Buyer, shards)
		buyers[home][r.Buyer] = true
		local, remote := false, false
		for _, c := range r.Columns[1:] { // column 0 is the shared key a
			if colShard[c] == home {
				local = true
			} else {
				remote = true
			}
		}
		if !local || !remote {
			t.Fatalf("want %v of %s (home %d) does not span shards", r.Columns, r.Buyer, home)
		}
	}
	if len(buyers[0]) != 4 || len(buyers[1]) != 4 {
		t.Errorf("buyers per shard = %d/%d, want four each", len(buyers[0]), len(buyers[1]))
	}
}

func TestChurnJoinInterleavesFreshShares(t *testing.T) {
	sc := mustGenerate(t, "churn-join", 1, 4)
	requests, shares := 0, 0
	for _, op := range sc.Steady {
		if op.Group >= 0 {
			requests++
		} else {
			shares++
		}
	}
	if shares == 0 || shares < requests/sc.Spec.ShareEvery-1 || shares > requests/sc.Spec.ShareEvery+1 {
		t.Errorf("%d shares for %d requests, want one per %d", shares, requests, sc.Spec.ShareEvery)
	}
	for g, cols := range sc.Groups {
		if len(cols) < 3 {
			t.Errorf("group %d wants %v: a single base would cover it", g, cols)
		}
	}
}
