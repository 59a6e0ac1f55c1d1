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
	"repro/internal/wal"
)

// parentExpect is what the gateway's HTTP surface answered over a testdata
// directory just before the process that wrote it stopped. Tickets, when
// present, maps every ticket issued to its /async/tickets answer.
type parentExpect struct {
	Settlements, History, Events json.RawMessage
	Counters                     struct{ Submitted, Applied, Matched, Failed uint64 }
	Balances                     map[string]json.RawMessage
	Tickets                      map[string]json.RawMessage
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

// copyTestdata copies testdata/<name> into a fresh directory and loads
// testdata/<name>.expect.json.
func copyTestdata(t *testing.T, name string) (string, parentExpect) {
	t.Helper()
	src := filepath.Join("testdata", name)
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
	var want parentExpect
	raw, err := os.ReadFile(filepath.Join("testdata", name+".expect.json"))
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// bootParentDir boots dir the way the gateway does (federation.Open behind
// dmms.Server) and checks that it answers exactly what the writing release
// answered: /settlements, the counters, every ticket in want.Tickets, and
// /events, /history and every balance as the state's fingerprint. It returns
// the booted market, running.
func bootParentDir(t *testing.T, dir string, want parentExpect, boot int) *federation.Market {
	t.Helper()
	m, err := federation.Open(federation.Config{Shards: 1, Dir: dir, Platform: core.Options{Design: "posted-baseline"}})
	if err != nil {
		t.Fatalf("boot %d: %v", boot, err)
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
	for id, tk := range want.Tickets {
		same("ticket "+id, get("/async/tickets/"+id), tk)
	}
	var st struct{ Submitted, Applied, Matched, Failed uint64 }
	if err := json.Unmarshal(get("/engine/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st != want.Counters {
		t.Fatalf("boot %d: counters %+v, want %+v", boot, st, want.Counters)
	}
	return m
}

// TestPreArchiveDirectoryImports boots testdata/prearchive — a one-shard WAL
// directory written through federation.Open and SnapshotAll by the release
// before the settlement-book archive, so both of its snapshots list their
// settlements, and the WAL runs past the newer one — twice; each boot must
// answer what that release answered before it stopped (bootParentDir). The
// first boot imports the listed settlements into a fresh archive and rewrites
// the snapshot with its mark in their place; the second reads them from the
// archive.
func TestPreArchiveDirectoryImports(t *testing.T) {
	dir, want := copyTestdata(t, "prearchive")
	newest := filepath.Join(dir, "snapshot-0000000068.json")
	listed := func() int {
		var snap struct{ Settlements json.RawMessage }
		raw, err := os.ReadFile(newest)
		if err == nil {
			// The snapshot's JSON (head): the first value in the file.
			err = json.NewDecoder(bytes.NewReader(raw)).Decode(&snap)
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
		m := bootParentDir(t, dir, want, boot)
		if res := m.Shards()[0].Boot; res.FromSnapshotSeq != 68 || res.ArchivedSettlements != 24 || len(res.SkippedSnapshots) != 0 {
			t.Fatalf("boot %d: %+v, want snapshot 68 with 24 archived settlements and nothing skipped", boot, res)
		}
		if n := listed(); n != -1 {
			t.Fatalf("boot %d left the snapshot listing %d settlements", boot, n)
		}
		m.Stop()
	}
}

// TestJSONTicketDirectoryBoots boots testdata/jsontickets — a one-shard WAL
// directory written through federation.Open and SnapshotAll by the release
// before the ticket trailer, so its snapshots carry the book's mark and the
// ticket window as JSON, and the WAL runs past the newer one — twice; each
// boot must answer what that release answered, every ticket included
// (bootParentDir). Between the boots a checkpoint writes the newest snapshot
// in the current form — JSON that the older release cannot decode, the
// tickets after it — and the second boot starts from that one.
func TestJSONTicketDirectoryBoots(t *testing.T) {
	dir, want := copyTestdata(t, "jsontickets")
	if len(want.Tickets) == 0 {
		t.Fatal("testdata expects no tickets")
	}
	var old struct {
		Tickets []json.RawMessage `json:"tickets"`
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "snapshot-0000000045.json")); err != nil || json.Unmarshal(raw, &old) != nil || len(old.Tickets) == 0 {
		t.Fatalf("testdata snapshot is not JSON with tickets (%v)", err)
	}

	m := bootParentDir(t, dir, want, 1)
	res := m.Shards()[0].Boot
	if res.FromSnapshotSeq != 45 || res.Replayed == 0 || res.ArchivedSettlements != 8 || len(res.SkippedSnapshots) != 0 {
		t.Fatalf("boot 1: %+v, want snapshot 45, a replayed tail, 8 archived settlements and nothing skipped", res)
	}
	cps, err := m.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	raw, err := os.ReadFile(cps[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	var head map[string]json.RawMessage
	if err := json.Unmarshal(raw, &head); err == nil {
		t.Fatal("the checkpoint wrote a snapshot the older release decodes")
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&head); err != nil || head["tickets"] != nil {
		t.Fatalf("the checkpoint's JSON head lists tickets (%v)", err)
	}
	snap, err := wal.LoadSnapshot(dir)
	if err != nil || snap.TakenAtSeq != cps[0].Seq || len(snap.Tickets) != len(want.Tickets) {
		t.Fatalf("newest snapshot %+v (%v), want seq %d holding %d tickets", snap, err, cps[0].Seq, len(want.Tickets))
	}

	m = bootParentDir(t, dir, want, 2)
	if res := m.Shards()[0].Boot; res.FromSnapshotSeq != cps[0].Seq || res.Replayed != 0 || len(res.SkippedSnapshots) != 0 {
		t.Fatalf("boot 2: %+v, want snapshot %d with nothing to replay or skip", res, cps[0].Seq)
	}
	m.Stop()
}
