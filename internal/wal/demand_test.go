package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

// TestDemandSignalsSurviveRestore: the unmet-demand counters — the signal
// the recommendation and opportunistic-seller services mine — are committed
// with each epoch-end record and re-seeded on replay, so a rebooted arbiter
// sees exactly the demand the original run accumulated.
func TestDemandSignalsSurviveRestore(t *testing.T) {
	basePlat, baseEng, dir := runUninterrupted(t, core.Options{Design: testDesign}, script(), SyncEpoch)
	live := basePlat.Arbiter.DemandSignals()
	if len(live) == 0 {
		t.Fatal("script produced no unmet demand; the test needs a starved column")
	}

	p2, e2, w2, _, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	e2.Stop()

	restored := p2.Arbiter.DemandSignals()
	if !reflect.DeepEqual(live, restored) {
		t.Fatalf("demand signals diverged after restore:\nlive:     %+v\nrestored: %+v", live, restored)
	}

	// The restored signal feeds the recommendation path: an opportunistic
	// seller is offered the hottest unmet column and supplies it.
	hottest := restored[0].Column
	id, err := p2.Arbiter.AskOpportunisticSeller("s3", func(col string) *relation.Relation {
		if col != hottest {
			return nil
		}
		r := relation.New("opportunistic", relation.NewSchema(relation.Col(col, relation.KindInt)))
		for i := 0; i < 5; i++ {
			r.MustAppend(relation.Int(int64(i)))
		}
		return r
	})
	if err != nil {
		t.Fatalf("opportunistic seller not fed by restored demand: %v", err)
	}
	if _, err := p2.Arbiter.Catalog.Get(id); err != nil {
		t.Fatalf("opportunistic dataset not shared: %v", err)
	}
	_ = baseEng
}

// purchaseScript gives the buyers overlapping but different purchase
// histories on both sides of a checkpoint after its third epoch.
func purchaseScript() [][]op {
	req := func(buyer, col string) op {
		return op{kind: "request", name: buyer, offer: 150, cols: []string{col}}
	}
	return [][]op{
		{
			{kind: "register", name: "b1", funds: 5000},
			{kind: "register", name: "b2", funds: 5000},
			{kind: "register", name: "b3", funds: 5000},
			{kind: "register", name: "b4", funds: 5000},
		},
		{
			{kind: "share", name: "s1", ds: "s1/a", rows: 8, valCol: "a"},
			{kind: "share", name: "s2", ds: "s2/b", rows: 8, valCol: "b"},
			{kind: "share", name: "s3", ds: "s3/c", rows: 8, valCol: "c"},
			{kind: "share", name: "s3", ds: "s3/d", rows: 8, valCol: "d"},
		},
		{req("b1", "a"), req("b2", "a"), req("b2", "b"), req("b3", "b"), req("b3", "c")},
		{req("b4", "c"), req("b1", "d"), req("b4", "a")},
	}
}

// TestRecommendSurvivesRestore: MayResell reads every purchase ever made, so
// a gateway restarted from a checkpoint plus the WAL tail, and one replaying
// the WAL alone, must hold exactly the purchase history of the uninterrupted
// run.
func TestRecommendSurvivesRestore(t *testing.T) {
	sc := purchaseScript()
	live, _, dir, _ := checkpointedRun(t, sc, 2)
	walOnly := t.TempDir()
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range segs {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(walOnly, name), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name     string
		dir      string
		snapshot bool
	}{{"snapshot+tail", dir, true}, {"wal-only", walOnly, false}} {
		p, e, w, res, err := Boot(core.Options{Design: testDesign}, engine.Config{}, Options{Dir: c.dir})
		if err != nil {
			t.Fatal(err)
		}
		e.Stop()
		w.Close()
		if (res.FromSnapshotSeq > 0) != c.snapshot {
			t.Fatalf("%s: boot %+v", c.name, res)
		}
		want, got := live.Arbiter.PurchaseCounts(), p.Arbiter.PurchaseCounts()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: purchases %v, the uninterrupted run says %v", c.name, got, want)
		}
		if len(want) < 4 {
			t.Fatalf("the script leaves %d buyers with purchases, want 4", len(want))
		}
	}
}

// TestDemandSignalsSurviveSnapshotRestore: signals also ride the checkpoint
// (PlatformSnapshot.Unmet) when the WAL prefix is pruned away.
func TestDemandSignalsSurviveSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(p, engine.Config{Persister: w})
	driveAll(t, e, script())
	e.Stop()

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Platform.Unmet) == 0 {
		t.Fatal("checkpoint dropped the unmet counters")
	}
	if _, err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PruneCovered(snap.TakenAtSeq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	p2, e2, w2, res, err := Boot(core.Options{Design: testDesign},
		engine.Config{}, Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.FromSnapshotSeq == 0 {
		t.Fatal("boot ignored the snapshot")
	}
	e2.Stop()
	if !reflect.DeepEqual(p.Arbiter.DemandSignals(), p2.Arbiter.DemandSignals()) {
		t.Fatalf("snapshot-restored demand signals diverged:\nlive:     %+v\nrestored: %+v",
			p.Arbiter.DemandSignals(), p2.Arbiter.DemandSignals())
	}
}
