package dmms

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

// TestEngineStatsExposeBuilderCounters: the /engine/stats surface carries
// the build counters — BuildMillis, CacheHits, CacheStale, CacheRetained —
// and the price stage's, so operators can see the candidate cache and the
// round working over the wire.
func TestEngineStatsExposeBuilderCounters(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{})
	defer done()

	if _, err := c.RegisterAsync("b1", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}

	req := RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	}
	var first engine.Stats
	for i := 0; i < 2; i++ {
		tk, err := c.SubmitRequestAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.TriggerEpoch(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			st, err := c.Ticket(tk)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != engine.TicketQueued && st.Status != engine.TicketApplied {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("ticket %s never terminal", tk)
			}
			time.Sleep(time.Millisecond)
		}
		stats, err := c.EngineStats()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = stats
			if stats.BuildMillis <= 0 {
				t.Errorf("BuildMillis = %v after first build, want > 0", stats.BuildMillis)
			}
			// The pricing split of the pipeline: the settled request above ran
			// the price stage and its revenue allocator, so the new wire
			// fields carry live values.
			if stats.PriceMillis <= 0 {
				t.Errorf("PriceMillis = %v after a settled round, want > 0", stats.PriceMillis)
			}
			if stats.AllocEvals == 0 {
				t.Error("AllocEvals = 0 after a settlement, want > 0")
			}
		} else if stats.CacheHits <= first.CacheHits {
			t.Errorf("cache hits did not climb over the wire: %d -> %d", first.CacheHits, stats.CacheHits)
		}
	}

	// A share that provides nothing the cached want asks for bumps the
	// catalog version but carries the cached set forward.
	other := relation.New("s2/d1", relation.NewSchema(relation.Col("p", relation.KindInt)))
	other.MustAppend(relation.Int(1))
	if _, err := c.ShareDatasetAsync("s2", "s2/d1", other, "open"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	stats, err := c.EngineStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheRetained != 1 || stats.CacheStale != 0 {
		t.Errorf("unrelated share: retained %d, stale %d over the wire, want 1 and 0", stats.CacheRetained, stats.CacheStale)
	}
}

// TestSingleShardStatsAreTheEnginesOwn: at one shard GET /engine/stats is the
// engine's own Stats — field for field, not a re-aggregation — plus a zero
// federation block.
func TestSingleShardStatsAreTheEnginesOwn(t *testing.T) {
	p, eng, _, done := asyncFixture(t, engine.Config{})
	defer done()
	s := NewEngineServer(p, eng)

	do(t, s, "POST", "/async/participants", ParticipantReq{Name: "b1", Funds: 5000}, nil)
	do(t, s, "POST", "/async/datasets", DatasetReq{Seller: "s1", ID: "s1/d1", Relation: asyncRelation("s1/d1", 30)}, nil)
	do(t, s, "POST", "/epoch", nil, nil)
	do(t, s, "POST", "/async/requests", RequestReq{Buyer: "b1", Columns: []string{"x", "y"},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}}}, nil)
	do(t, s, "POST", "/epoch", nil, nil)

	var got StatsView
	wantCode(t, do(t, s, "GET", "/engine/stats", nil, &got), http.StatusOK)
	want := eng.Stats()
	if want.Matched != 1 || want.BuildMillis <= 0 {
		t.Fatalf("fixture did not settle: %+v", want)
	}
	// The two reads are microseconds apart; only the clock-derived fields move.
	got.Uptime, got.MatchesPerSec = want.Uptime, want.MatchesPerSec
	if got.Stats != want {
		t.Fatalf("one-shard /engine/stats diverged from Engine.Stats:\n got %+v\nwant %+v", got.Stats, want)
	}
	if !reflect.DeepEqual(got.Federation, FederationDetail{Shards: 1}) {
		t.Fatalf("federation block = %+v, want shards=1 and zeros", got.Federation)
	}
}
