package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dod"
	"repro/internal/index"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// churnCatalog shares a churn-join-like catalog into p: six bases joined on
// their key a, then fresh shares with disjoint keys — every tenth also
// holding part of a — and finally re-shares one base, with fewer rows and new
// values, under an ID of its own. It returns the wants a buyer of that market
// files.
func churnCatalog(t *testing.T, p *Platform) []dod.Want {
	t.Helper()
	open := license.Terms{Kind: license.Open}
	share := func(owner, id string, r *relation.Relation) {
		t.Helper()
		if err := p.ShareDataset(owner, catalog.DatasetID(id), r, wtp.DatasetMeta{}, open); err != nil {
			t.Fatal(err)
		}
	}
	base := func(s, rows int, salt float64) *relation.Relation {
		r := relation.New(fmt.Sprintf("s%d/base", s), relation.NewSchema(relation.Col("a", relation.KindInt),
			relation.Col("c", relation.KindFloat), relation.Col(fmt.Sprintf("w%d", s), relation.KindFloat)))
		for i := 0; i < rows; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(float64(s+1)*10000+float64(i)/2),
				relation.Float(float64(s+10)*10000+float64(i*7%30)+salt))
		}
		return r
	}
	for s := 0; s < 6; s++ {
		share(fmt.Sprintf("s%d", s), fmt.Sprintf("s%d/base", s), base(s, 30, 0))
	}
	for k := 0; k < 150; k++ {
		key := fmt.Sprintf("xk%d", k)
		lo := 10000000 + k*1000
		if k%10 == 0 {
			key, lo = "a", k%20
		}
		r := relation.New(fmt.Sprintf("x%d/d", k), relation.NewSchema(relation.Col(key, relation.KindInt),
			relation.Col(fmt.Sprintf("xv%d", k), relation.KindFloat)))
		for i := 0; i < 20; i++ {
			r.MustAppend(relation.Int(int64(lo+i)), relation.Float(float64(lo+i)+0.25))
		}
		share(fmt.Sprintf("x%d", k), fmt.Sprintf("x%d/d", k), r)
	}
	share("s2", "s2/reshare", base(2, 24, 0.5))
	var wants []dod.Want
	for i := 0; i < 6; i++ {
		for _, step := range []int{1, 2} {
			wants = append(wants, dod.Want{Columns: []string{"a", fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", (i+step)%6)}})
		}
	}
	return append(wants,
		dod.Want{Columns: []string{"a", "w0", "w2", "w4"}},
		dod.Want{Columns: []string{"a", "w2", "xv10"}},
		dod.Want{Columns: []string{"xk3", "xv3"}})
}

// edgeSet is the join graph as a set: every edge once, either direction.
func edgeSet(ix *index.Index) []string {
	var out []string
	for _, e := range ix.Edges() {
		a, b := fmt.Sprint(e.A), fmt.Sprint(e.B)
		out = append(out, fmt.Sprint(min(a, b), max(a, b), e.Jaccard, e.Containment))
	}
	sort.Strings(out)
	return out
}

// TestRestoreReindexesLikeShares: a platform restored from a churn-like
// snapshot has the index and DoD builds of one that shared the snapshot's
// datasets itself, in the same order; and, the re-shared dataset included,
// the join edges of the platform the snapshot was taken from.
func TestRestoreReindexesLikeShares(t *testing.T) {
	live, err := NewPlatform(Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	wants := churnCatalog(t, live)
	raw, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap PlatformSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestorePlatform(Options{}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := NewPlatform(Options{Design: snap.Design})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range snap.Datasets {
		terms := license.Terms{Kind: license.Kind(d.License), ExclusivityTaxRate: d.TaxRate}
		if err := replayed.ShareDataset(d.Owner, catalog.DatasetID(d.ID), d.Relation, d.Meta, terms); err != nil {
			t.Fatal(err)
		}
	}

	got, want := restored.Arbiter.Discovery().Index(), replayed.Arbiter.Discovery().Index()
	if g, w := got.Datasets(), want.Datasets(); !reflect.DeepEqual(g, w) || len(g) != 157 {
		t.Fatalf("datasets: restored %d, replayed %d", len(g), len(w))
	}
	if g, w := got.Edges(), want.Edges(); !reflect.DeepEqual(g, w) {
		t.Fatalf("edges differ:\nrestored %v\nreplayed %v", g, w)
	}
	for _, ds := range want.Datasets() {
		if g, w := got.EdgesFor(ds), want.EdgesFor(ds); !reflect.DeepEqual(g, w) {
			t.Fatalf("EdgesFor(%s) differ:\nrestored %v\nreplayed %v", ds, g, w)
		}
		dp := want.Profile(ds)
		for i := range dp.Columns {
			toks := index.Tokenize(dp.Columns[i].Column)
			for _, v := range dp.Columns[i].TopValues {
				toks = append(toks, index.Tokenize(v)...)
			}
			for _, tok := range toks {
				if g, w := got.Lookup(tok), want.Lookup(tok); !reflect.DeepEqual(g, w) {
					t.Fatalf("Lookup(%q): restored %v, replayed %v", tok, g, w)
				}
			}
		}
	}
	if g, w := edgeSet(got), edgeSet(live.Arbiter.Discovery().Index()); !reflect.DeepEqual(g, w) {
		t.Fatalf("restored edges are not the live platform's:\nrestored %q\nlive     %q", g, w)
	}
	if len(want.EdgesFor("s2/base")) < 5+15 {
		t.Fatalf("s2/base has %d edges, want its a key joined to the other bases and the a-holding shares", len(want.EdgesFor("s2/base")))
	}

	built := 0
	for _, w := range wants {
		g, gerr := restored.Arbiter.DoD().Build(w)
		r, rerr := replayed.Arbiter.DoD().Build(w)
		if !reflect.DeepEqual(g, r) || fmt.Sprint(gerr) != fmt.Sprint(rerr) {
			t.Fatalf("Build(%v) differs:\nrestored %v (%v)\nreplayed %v (%v)", w.Columns, g, gerr, r, rerr)
		}
		if len(g) > 0 {
			built++
		}
	}
	if built < len(wants)-1 {
		t.Fatalf("only %d of %d wants built a mashup", built, len(wants))
	}
}
