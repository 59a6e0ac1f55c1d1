package dmms

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/wal"
)

// durableConfig is the WAL-backed market the durability tests open — the
// gateway's own boot path (federation.Open), always-fsync so the log holds
// exactly what the live process saw.
func durableConfig(dir string, shards int, design string) federation.Config {
	return federation.Config{
		Shards:   shards,
		Dir:      dir,
		Sync:     wal.SyncAlways,
		Engine:   engine.Config{},
		Platform: core.Options{Design: design},
	}
}

// TestAsyncSurfaceSurvivesRestart covers the client-visible durability
// contract: a client holding a ticket and an /events cursor from before a
// gateway restart must resume polling against the rebooted server without
// gaps or duplicates, and its old ticket must still resolve to the same
// terminal state.
func TestAsyncSurfaceSurvivesRestart(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1, "posted-baseline")

	// --- first server lifetime -------------------------------------------
	m, err := federation.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMarketServer(m))
	c := NewClient(srv.URL)

	regT, err := c.RegisterAsync("b1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	shareT, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open")
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("first epoch: ran=%v err=%v", ran, err)
	}
	reqT, err := c.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("second epoch: ran=%v err=%v", ran, err)
	}
	reqTk, err := c.WaitTicket(reqT, time.Second)
	if err != nil || reqTk.Status != engine.TicketDone {
		t.Fatalf("request did not settle before restart: %+v err=%v", reqTk, err)
	}

	// The client consumes part of the stream and remembers its cursor.
	pre, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) < 4 {
		t.Fatalf("want a few events before restart, got %d", len(pre))
	}
	cursor := pre[len(pre)/2].Seq
	seen := map[int]bool{}
	for _, ev := range pre[:len(pre)/2+1] {
		seen[ev.Seq] = true
	}
	total := pre[len(pre)-1].Seq

	// --- restart ----------------------------------------------------------
	srv.Close()
	m.Stop()

	m2, err := federation.Open(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer m2.Stop()
	if res := m2.Shards()[0].Boot; res.Recovered != total {
		t.Fatalf("recovered %d events, want %d", res.Recovered, total)
	}
	srv2 := httptest.NewServer(NewMarketServer(m2))
	defer srv2.Close()
	c2 := NewClient(srv2.URL)

	// Resume the event stream from the pre-restart cursor: contiguous,
	// no gaps, no duplicates.
	post, err := c2.Events(cursor)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range post {
		if ev.Seq != cursor+i+1 {
			t.Fatalf("resumed stream has a gap: event %d has seq %d, want %d", i, ev.Seq, cursor+i+1)
		}
		if seen[ev.Seq] {
			t.Fatalf("resumed stream duplicates seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	for s := 1; s <= total; s++ {
		if !seen[s] {
			t.Fatalf("seq %d never delivered across the restart", s)
		}
	}

	// Pre-restart tickets still resolve, with their settled state intact.
	for _, tc := range []struct {
		id   string
		want engine.TicketStatus
	}{{regT, engine.TicketDone}, {shareT, engine.TicketDone}, {reqT, engine.TicketDone}} {
		tk, err := c2.Ticket(tc.id)
		if err != nil {
			t.Fatalf("ticket %s lost across restart: %v", tc.id, err)
		}
		if tk.Status != tc.want {
			t.Fatalf("ticket %s status %s after restart, want %s", tc.id, tk.Status, tc.want)
		}
	}
	if tk, _ := c2.Ticket(reqT); tk.TxID != reqTk.TxID || tk.Price != reqTk.Price {
		t.Fatalf("settled ticket changed across restart: %+v vs %+v", tk, reqTk)
	}

	// The rebooted engine keeps serving: a new request matches against the
	// replayed catalog, and its events extend the stream contiguously.
	req2T, err := c2.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 140}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c2.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("post-restart epoch: ran=%v err=%v", ran, err)
	}
	tk2, err := c2.WaitTicket(req2T, time.Second)
	if err != nil || tk2.Status != engine.TicketDone {
		t.Fatalf("post-restart request did not settle: %+v err=%v", tk2, err)
	}
	ext, err := c2.Events(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) == 0 || ext[0].Seq != total+1 {
		t.Fatalf("post-restart events do not extend the stream: %+v", ext)
	}
	if _, conserved, err := c2.Settlements(); err != nil || !conserved {
		t.Fatalf("settlement conservation after restart: conserved=%v err=%v", conserved, err)
	}

	// Stats expose the durable watermark.
	st, err := c2.EngineStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPersisted != st.Events {
		t.Fatalf("last_persisted %d lags events %d under always-fsync", st.LastPersisted, st.Events)
	}
}

// TestSnapshotEndpoint exercises the /snapshot admin surface at one and two
// shards: 503 without a snapshot lineage; with one, a checkpoint per shard,
// shard 0's path + seq for single-checkpoint clients (Client.Snapshot), and
// -prune-on-snapshot (federation.Config.PruneOnSnapshot) honoured either way.
func TestSnapshotEndpoint(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{})
	defer done()
	if _, _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("snapshot without a store must answer 503, got %v", err)
	}

	for _, shards := range []int{1, 2} {
		for _, prune := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/prune=%v", shards, prune), func(t *testing.T) {
				dir := t.TempDir()
				cfg := durableConfig(dir, shards, "posted-baseline")
				cfg.SegmentBytes, cfg.PruneOnSnapshot = 512, prune // rotate, so there is something to prune
				m, err := federation.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Stop()
				s := NewMarketServer(m)
				srv := httptest.NewServer(s)
				defer srv.Close()
				c := NewClient(srv.URL)

				// Three checkpoints with work in between: every lineage keeps
				// the newest two snapshots; only pruning drops the segments the
				// older of them covers.
				var path string
				var seq int
				for i := 0; i < 3; i++ {
					for shard := 0; shard < shards; shard++ {
						name := nameOn(t, fmt.Sprintf("b%d-", i), shard, shards)
						if _, err := c.RegisterAsync(name, 500); err != nil {
							t.Fatal(err)
						}
					}
					if _, _, err := c.TriggerEpoch(); err != nil {
						t.Fatal(err)
					}
					if path, seq, err = c.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
				if seq == 0 || path == "" {
					t.Fatalf("snapshot wrote nothing: path=%q seq=%d", path, seq)
				}
				var resp SnapshotResp
				wantCode(t, do(t, s, "POST", "/snapshot", nil, &resp), http.StatusOK)
				if len(resp.Paths) != shards || resp.Path != resp.Paths[0] || resp.Seq != seq {
					t.Fatalf("snapshot response %+v, want %d paths led by shard 0 at seq %d", resp, shards, seq)
				}
				for _, sh := range m.Shards() {
					if shards == 1 && sh.Dir != dir {
						t.Fatalf("one-shard lineage lives in %s, want %s itself", sh.Dir, dir)
					}
					snap, err := wal.LoadSnapshot(sh.Dir)
					if err != nil || snap == nil {
						t.Fatalf("shard %d snapshot not loadable: %+v err=%v", sh.Index, snap, err)
					}
					files, err := filepath.Glob(filepath.Join(sh.Dir, "snapshot-*.json"))
					if err != nil {
						t.Fatal(err)
					}
					if len(files) != 2 {
						t.Fatalf("shard %d keeps %d snapshot files with prune=%v, want 2", sh.Index, len(files), prune)
					}
					_, err = os.Stat(filepath.Join(sh.Dir, "wal-0000000001.seg"))
					if kept := err == nil; kept == prune {
						t.Fatalf("shard %d: first segment kept = %v with prune=%v", sh.Index, kept, prune)
					}
				}
			})
		}
	}
}
