package probe

import (
	"math"
	"testing"

	"repro/bench/workloads"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// leaveWAL writes the durable log probeWAL replays: the script's set-up and
// one batch of requests through a WAL-backed engine, laid out as the gateway
// would (under shard-0 for a federation).
func leaveWAL(t *testing.T, in *inputs, dir string) {
	t.Helper()
	_, eng, w, _, err := wal.Boot(core.Options{Design: design}, engine.Config{}, wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range in.buyers {
		if _, err := eng.SubmitRegister(b.Name, b.Funds); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range in.bases {
		if _, err := eng.SubmitShare(d.Seller, catalog.DatasetID(d.ID), d.Relation,
			wtp.DatasetMeta{Dataset: d.ID, HasProvenance: true}, license.Terms{Kind: license.Open}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range in.requests[:batch] {
		if _, err := eng.SubmitRequest(r.want, r.fn); err != nil {
			t.Fatal(err)
		}
	}
	eng.Stop() // runs the flush epoch
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLayersReportsEveryProbe(t *testing.T) {
	names := []string{
		"dmms.codec_us", "engine.submit_us", "engine.epoch_self_ms", "arbiter.price_round_ms",
		"dod.build_cold_ms", "dod.build_warm_us", "relation.join_ms", "provenance.join_ms",
		"market.split_us", "index.share_ms", "wal.persist_us", "wal.replay_events_per_s",
		"federation.route_us", "federation.coord_round_ms_per_want",
	}
	for _, spec := range workloads.Table {
		t.Run(spec.Name, func(t *testing.T) {
			sc, err := workloads.Generate(spec, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			in, err := decode(sc)
			if err != nil {
				t.Fatal(err)
			}
			walDir := t.TempDir()
			logDir := walDir
			if spec.Shards > 1 {
				logDir += "/shard-0"
			}
			leaveWAL(t, in, logDir)
			rec := &Recorder{}
			got, err := Layers(sc, walDir, t.TempDir(), rec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(names) {
				t.Errorf("Layers reported %d metrics, want %d: %v", len(got), len(names), got)
			}
			for _, n := range names {
				m, ok := got[n]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || m.Unit == "" {
					t.Errorf("%s = %+v (present %v)", n, m, ok)
				}
				fed := n == "federation.route_us" || n == "federation.coord_round_ms_per_want"
				if (m.Value == 0) != (fed && spec.Shards == 1) {
					t.Errorf("%s = %v on %s", n, m.Value, spec.Name)
				}
			}
			if rec.Len() == 0 {
				t.Error("no spans recorded")
			}
			t.Logf("%v", got)
		})
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := &Recorder{}
	rec.spans = []Span{
		{Trace: "t", Name: "parent", Start: 0, End: 100},
		{Trace: "t", Name: "a", Parent: "parent", Start: 10, End: 40},
		{Trace: "t", Name: "b", Parent: "parent", Start: 30, End: 60}, // overlaps a: covered once
		{Trace: "u", Name: "a", Parent: "parent", Start: 0, End: 100}, // other trace: not a child
	}
	self := rec.SelfTimes()
	if self["parent"] != 50 {
		t.Errorf("parent self time = %d, want 50", self["parent"])
	}
	if self["a"] != 130 || self["b"] != 30 {
		t.Errorf("leaf self times = %d, %d, want 130, 30", self["a"], self["b"])
	}
}
