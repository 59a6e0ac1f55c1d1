package engine

import (
	"testing"
	"time"

	"repro/internal/license"
	"repro/internal/wtp"
)

// TestCandidateCacheHitsAcrossEpochs pins the candidate cache's win on the
// epoch path: repeated identical wants build once and hit the cache in every
// later epoch, with the build time accounted to BuildMillis and, since the
// build runs inside the round, to PriceMillis too.
func TestCandidateCacheHitsAcrossEpochs(t *testing.T) {
	_, e := newTestEngine(t, Config{})
	defer e.Stop()

	mustTicket(e.SubmitRegister("b1", 100000))
	mustTicket(e.SubmitShare("s1", "s1/d", testRelation("s1/d", 20),
		wtp.DatasetMeta{Dataset: "s1/d", HasProvenance: true}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()

	var hits uint64
	for i := 0; i < 4; i++ {
		want, fn := coverageRequest("b1", 150)
		tk := mustTicket(e.SubmitRequest(want, fn))
		e.TriggerEpoch()
		waitTerminal(t, e, []string{tk}, time.Second)
		st := e.Stats()
		if i > 0 && st.CacheHits <= hits {
			t.Fatalf("epoch %d: cache hits did not climb (%d -> %d)", i, hits, st.CacheHits)
		}
		hits = st.CacheHits
	}
	st := e.Stats()
	if st.Matched != 4 {
		t.Fatalf("matched %d of 4 requests", st.Matched)
	}
	if st.BuildMillis <= 0 {
		t.Errorf("BuildMillis = %v, want > 0", st.BuildMillis)
	}
	// Builds run inside the price stage, so its clock covers them.
	if st.PriceMillis < st.BuildMillis {
		t.Errorf("PriceMillis = %v < BuildMillis = %v", st.PriceMillis, st.BuildMillis)
	}
}
