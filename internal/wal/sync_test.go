package wal

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestSyncEpochSyncsXTxCommit: under SyncEpoch a log fsyncs at an epoch-end
// record and at an xtx-committed one — a cross-shard sale's home commit is
// its decision, which must be durable before any seller's shard is paid —
// and at no other record.
func TestSyncEpochSyncsXTxCommit(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: t.TempDir(), Policy: SyncEpoch, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fsyncs := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if n, ok := strings.CutPrefix(line, "wal_fsync_seconds_count "); ok {
				return n
			}
		}
		return "none"
	}
	for i, c := range []struct {
		ev     engine.Event
		fsyncs string
	}{
		{engine.Event{Kind: engine.EventEpochStart}, "0"},
		{engine.Event{Kind: engine.EventXTxPrepared, TxID: "tx-0001", Ticket: "sub-000001", Price: 100}, "0"},
		{engine.Event{Kind: engine.EventXTxCommitted, TxID: "tx-0001", XTxRole: engine.XTxRoleHome, Price: 100}, "1"},
		{engine.Event{Kind: engine.EventXTxCommitted, TxID: "s1:tx-0001", XTxRole: engine.XTxRoleRemote}, "2"},
		{engine.Event{Kind: engine.EventRequestUnmet}, "2"},
		{engine.Event{Kind: engine.EventEpochEnd}, "3"},
	} {
		c.ev.Seq = i + 1
		if err := w.Persist(c.ev); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs(); got != c.fsyncs {
			t.Fatalf("after %s: %s fsyncs, want %s", c.ev.Kind, got, c.fsyncs)
		}
	}
}
