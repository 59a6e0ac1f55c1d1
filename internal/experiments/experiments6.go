package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// E14WALDurability measures the durable event log (internal/wal): a market
// workload is driven through a WAL-backed engine under each fsync policy,
// reporting sustained event-append throughput and the cost of recovery —
// loading the log back and rebuilding platform + engine state by replay.
// The determinism column confirms the recovered engine reports the same
// settlement count and epoch as the original (the property the crash/replay
// harness asserts byte-for-byte).
func E14WALDurability(epochs int, seed int64) (Table, error) {
	t := Table{ID: "E14", Title: "durable event log: WAL append throughput and replay recovery"}
	t.Rows = append(t.Rows, fmt.Sprintf("%-8s %12s %12s %12s %10s %s",
		"fsync", "events", "append/s", "recover_ms", "replayed", "deterministic"))

	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncEpoch, wal.SyncOff} {
		dir, err := os.MkdirTemp("", "e14-wal-")
		if err != nil {
			return t, err
		}
		defer os.RemoveAll(dir)

		w, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
		if err != nil {
			return t, err
		}
		p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Seed: seed})
		if err != nil {
			return t, err
		}
		eng := engine.New(p, engine.Config{Persister: w})

		start := time.Now()
		for b := 0; b < 4; b++ {
			eng.SubmitRegister(fmt.Sprintf("buyer%02d", b), 1e6)
		}
		eng.TriggerEpoch()
		for ep := 0; ep < epochs; ep++ {
			for s := 0; s < 4; s++ {
				id := catalog.DatasetID(fmt.Sprintf("s%02d/e%d", s, ep))
				rel := relation.New(string(id), relation.NewSchema(
					relation.Col("a", relation.KindInt), relation.Col("b", relation.KindFloat)))
				for i := 0; i < 40; i++ {
					rel.MustAppend(relation.Int(int64(i)+seed), relation.Float(float64(i)))
				}
				eng.SubmitShare(fmt.Sprintf("seller%02d", s), id, rel,
					wtp.DatasetMeta{Dataset: string(id), HasProvenance: true},
					license.Terms{Kind: license.Open})
			}
			for b := 0; b < 4; b++ {
				eng.SubmitRequest(dod.Want{Columns: []string{"a", "b"}}, &wtp.Function{
					Buyer: fmt.Sprintf("buyer%02d", b),
					Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 1},
					Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 150}},
				})
			}
			eng.TriggerEpoch()
		}
		eng.Stop()
		elapsed := time.Since(start)
		if err := w.Close(); err != nil {
			return t, err
		}
		stats := eng.Stats()
		if stats.PersistErr != "" {
			return t, fmt.Errorf("E14: persister wedged under %s: %s", policy, stats.PersistErr)
		}

		recoverStart := time.Now()
		p2, eng2, w2, res, err := wal.Boot(core.Options{Design: "posted-baseline", Seed: seed},
			engine.Config{}, wal.Options{Dir: dir, Policy: policy})
		if err != nil {
			return t, err
		}
		recoverMs := float64(time.Since(recoverStart).Microseconds()) / 1000
		eng2.Stop()
		w2.Close()
		_ = p2

		deterministic := eng2.Settlements().Count() == eng.Settlements().Count() &&
			eng2.Stats().Epochs == stats.Epochs &&
			eng2.Log().LastSeq() == eng.Log().LastSeq()
		t.Rows = append(t.Rows, fmt.Sprintf("%-8s %12d %12.0f %12.2f %10d %v",
			policy, stats.Events, float64(stats.Events)/elapsed.Seconds(), recoverMs,
			res.Replayed, deterministic))
	}
	return t, nil
}
