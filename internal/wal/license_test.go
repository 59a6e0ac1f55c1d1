package wal

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// licenseAnswers renders every license answer a platform gives: the period's
// exclusivity taxes, and MayResell for every (account, dataset) pair.
func licenseAnswers(p *core.Platform) string {
	var b strings.Builder
	fmt.Fprintf(&b, "taxes %v\n", p.Arbiter.Licenses.PeriodTaxes())
	for _, acct := range p.Arbiter.Ledger.Accounts() {
		for _, ds := range p.Arbiter.SharedIDs() {
			fmt.Fprintf(&b, "%s/%s %v\n", acct, ds, p.Arbiter.MayResell(ds, acct))
		}
	}
	return b.String()
}

// TestLicencesSurviveRestore: a platform booted from a checkpoint taken
// between sales, plus the WAL tail, and one booted from the WAL alone must
// both answer every license question as the live run does — the holder and
// tax of the exclusive dataset sold before the checkpoint, and the resale
// right of the open purchase made before it, included.
func TestLicencesSurviveRestore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.NewPlatform(core.Options{Design: testDesign})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(live, engine.Config{Persister: w})
	for i, epoch := range licenseScript() {
		for _, o := range epoch {
			submitOp(e, o)
		}
		e.TriggerEpoch()
		if i == 1 { // after the exclusive dataset's first sale and an open purchase
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(dir, snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Stop()
	w.Close()
	want := licenseAnswers(live)
	if !strings.Contains(want, "taxes map[b1:10]") || !strings.Contains(want, "b2/s3/open true") ||
		!strings.Contains(want, "b2/s2/tr true") {
		t.Fatalf("the live run answers nothing worth restoring:\n%s", want)
	}

	restored, e2, w2, res, err := Boot(core.Options{Design: testDesign}, engine.Config{},
		Options{Dir: dir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e2.Stop(); w2.Close() }()
	if res.FromSnapshotSeq == 0 || res.Replayed == 0 {
		t.Fatalf("boot %+v, want a snapshot plus a tail", res)
	}

	_, _, walDir := runUninterrupted(t, core.Options{Design: testDesign}, licenseScript(), SyncEpoch)
	replayed, e3, w3, res, err := Boot(core.Options{Design: testDesign}, engine.Config{},
		Options{Dir: walDir, Policy: SyncEpoch})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e3.Stop(); w3.Close() }()
	if res.FromSnapshotSeq != 0 {
		t.Fatalf("boot %+v, want the WAL alone", res)
	}

	for name, p := range map[string]*core.Platform{"snapshot + tail": restored, "WAL only": replayed} {
		if got := licenseAnswers(p); got != want {
			t.Errorf("%s answers differently from the live run:\n--- live\n%s--- %s\n%s", name, want, name, got)
		}
	}
}
