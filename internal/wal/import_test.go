package wal_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dmms"
	"repro/internal/federation"
	"repro/internal/ledger"
)

// prearchiveExpect is what the gateway's HTTP surface answered over
// testdata/prearchive just before the process that wrote it stopped.
type prearchiveExpect struct {
	Settlements, History, Events json.RawMessage
	Counters                     struct{ Submitted, Applied, Matched, Failed uint64 }
	Balances                     map[string]json.RawMessage
}

// withoutPlans drops the plan of every /history transaction: the mashup's
// build plan lives only in the process that built it, so any restart, in any
// release, answers it empty.
func withoutPlans(t *testing.T, history []byte) []byte {
	t.Helper()
	var h dmms.HistoryResp
	if err := json.Unmarshal(history, &h); err != nil {
		t.Fatal(err)
	}
	for i := range h.Transactions {
		h.Transactions[i].Plan = nil
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPreArchiveDirectoryImports boots testdata/prearchive — a one-shard WAL
// directory written through federation.Open and SnapshotAll by the release
// before the settlement-book archive, so both of its snapshots list their
// settlements, and the WAL runs past the newer one — the way the gateway
// does (federation.Open behind dmms.Server), twice. Each boot must answer
// exactly what that release answered before it stopped: /settlements, the
// counters, and /events, /history and every balance as the state's
// fingerprint. The first boot imports the listed settlements into a fresh
// archive and rewrites the snapshot with its mark in their place; the second
// reads them from the archive.
func TestPreArchiveDirectoryImports(t *testing.T) {
	src := filepath.Join("testdata", "prearchive")
	dir := t.TempDir()
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var want prearchiveExpect
	raw, err := os.ReadFile(filepath.Join("testdata", "prearchive.expect.json"))
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, "snapshot-0000000068.json")
	listed := func() int {
		var snap struct{ Settlements json.RawMessage }
		raw, err := os.ReadFile(newest)
		if err == nil {
			err = json.Unmarshal(raw, &snap)
		}
		if err != nil {
			t.Fatal(err)
		}
		var list []ledger.Settlement
		if json.Unmarshal(snap.Settlements, &list) != nil {
			return -1 // a mark, not a list
		}
		return len(list)
	}
	if listed() != 24 {
		t.Fatalf("testdata snapshot lists %d settlements, want 24", listed())
	}

	for boot := 1; boot <= 2; boot++ {
		m, err := federation.Open(federation.Config{Shards: 1, Dir: dir, Platform: core.Options{Design: "posted-baseline"}})
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		res := m.Shards()[0].Boot
		if res.FromSnapshotSeq != 68 || res.ArchivedSettlements != 24 || len(res.SkippedSnapshots) != 0 {
			t.Fatalf("boot %d: %+v, want snapshot 68 with 24 archived settlements and nothing skipped", boot, res)
		}
		if n := listed(); n != -1 {
			t.Fatalf("boot %d left the snapshot listing %d settlements", boot, n)
		}
		s := dmms.NewMarketServer(m)
		get := func(path string) []byte {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			body, _ := io.ReadAll(rec.Result().Body)
			if rec.Code != 200 {
				t.Fatalf("boot %d: GET %s: %d %s", boot, path, rec.Code, body)
			}
			return body
		}
		same := func(what string, got, want []byte) {
			var g, w bytes.Buffer
			if err := json.Compact(&g, got); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&w, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Fatalf("boot %d: %s differs from what the writing release answered:\n%s\n%s", boot, what, g.Bytes(), w.Bytes())
			}
		}
		same("/settlements", get("/settlements"), want.Settlements)
		same("/events", get("/events?after=0"), want.Events)
		same("/history", withoutPlans(t, get("/history")), withoutPlans(t, want.History))
		for name, bal := range want.Balances {
			same("balance of "+name, get("/balance?account="+name), bal)
		}
		var st struct{ Submitted, Applied, Matched, Failed uint64 }
		if err := json.Unmarshal(get("/engine/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if st != want.Counters {
			t.Fatalf("boot %d: counters %+v, want %+v", boot, st, want.Counters)
		}
		m.Stop()
	}
}
