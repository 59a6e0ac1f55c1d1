package arbiter

import (
	"context"
	"testing"

	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// abWTP prices coverage of ⟨a, b⟩ alone (setupMarket's s1).
func abWTP(buyer string, price float64) *wtp.Function {
	return &wtp.Function{
		Buyer: buyer,
		Task:  wtp.CoverageTask{Columns: []string{"a", "b"}, WantRows: 50},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: price}},
	}
}

// TestUpdateBetweenBuildAndPrice is the regression for the prebuild race: a
// candidate set built before a catalog update that touches its want (here a
// share providing a wanted column) must never be priced — the version check
// at price time detects the bump and rebuilds, so the settled mashup is built
// from the updated catalog.
func TestUpdateBetweenBuildAndPrice(t *testing.T) {
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b", "z"}}
	f := &wtp.Function{
		Buyer: "b1",
		Task:  wtp.CoverageTask{Columns: []string{"a", "b", "z"}, WantRows: 50},
		Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: 100}},
	}
	if _, err := a.SubmitRequest(want, f); err != nil {
		t.Fatal(err)
	}

	// Build stage: a worker prebuilds against the current catalog, where
	// nothing provides z.
	prebuilt := map[string]*dod.CandidateSet{want.Key(): a.BuildFor(context.Background(), want)}

	// A dataset providing z lands between build and price: only a mashup
	// built after the share can satisfy the buyer.
	s3 := relation.New("s3", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("z", relation.KindFloat)))
	for i := 0; i < 100; i++ {
		s3.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*3))
	}
	if err := a.ShareDataset("seller1", "s3", s3, meta("s3"), license.Terms{Kind: license.Open}); err != nil {
		t.Fatal(err)
	}
	if a.DoD().Valid(prebuilt[want.Key()], want) {
		t.Fatal("prebuilt set still valid after a share that touches its want")
	}

	res, err := a.PriceRound(context.Background(), nil, prebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d, want 1 (unsatisfied %v)", len(res.Transactions), res.Unsatisfied)
	}
	if tx := res.Transactions[0]; !tx.Mashup.Schema.Has("z") || tx.Mashup.NumRows() == 0 {
		t.Errorf("settled against the pre-share mashup: %s, %d rows", tx.Mashup.Schema, tx.Mashup.NumRows())
	}
	if st := a.DoD().CacheStats(); st.Stale == 0 {
		t.Errorf("price-time rebuild not counted as stale: %+v", st)
	}
}

// TestPriceRoundUsesValidPrebuilt pins the fast path: a version-valid handed
// set is priced as-is, with no extra build.
func TestPriceRoundUsesValidPrebuilt(t *testing.T) {
	a := setupMarket(t, mkDesign())
	want := dod.Want{Columns: []string{"a", "b"}}
	if _, err := a.SubmitRequest(want, abWTP("b1", 100)); err != nil {
		t.Fatal(err)
	}
	prebuilt := map[string]*dod.CandidateSet{want.Key(): a.BuildFor(context.Background(), want)}
	builds := a.DoD().CacheStats().Builds

	res, err := a.PriceRound(context.Background(), nil, prebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transactions) != 1 {
		t.Fatalf("transactions = %d, want 1", len(res.Transactions))
	}
	if got := a.DoD().CacheStats().Builds; got != builds {
		t.Errorf("price stage ran %d extra build(s); prebuilt set should have been consumed", got-builds)
	}
}
