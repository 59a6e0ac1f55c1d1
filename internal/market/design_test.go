package market

import (
	"fmt"
	"math"
	"testing"
)

func TestDesignValidate(t *testing.T) {
	ok := &Design{Label: "d", Mechanism: PostedPrice{P: 1}, Allocator: Uniform{}, ArbiterFee: 0.1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	bad := []*Design{
		{Mechanism: PostedPrice{}, Allocator: Uniform{}},
		{Label: "x", Allocator: Uniform{}},
		{Label: "x", Mechanism: PostedPrice{}},
		{Label: "x", Mechanism: PostedPrice{}, Allocator: Uniform{}, ArbiterFee: 1.5},
		{Label: "x", Mechanism: PostedPrice{}, Allocator: Uniform{}, Elicitation: ElicitExPost},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad design %d accepted", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	d := &Design{Label: "d1", Mechanism: PostedPrice{P: 1}, Allocator: Uniform{}}
	if err := r.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(d); err == nil {
		t.Error("duplicate label must fail")
	}
	got, err := r.Get("d1")
	if err != nil || got != d {
		t.Errorf("get = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Error("unknown label must fail")
	}
}

func TestStandardDesigns(t *testing.T) {
	r := StandardDesigns()
	labels := r.Labels()
	if len(labels) < 5 {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range labels {
		d, err := r.Get(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("standard design %s invalid: %v", l, err)
		}
	}
}

func TestShareRevenue(t *testing.T) {
	d := &Design{Label: "d", Mechanism: PostedPrice{P: 1}, Allocator: ShapleyExact{}, ArbiterFee: 0.1}
	owners := map[string]string{"ds1": "seller1", "ds2": "seller2"}
	split := d.ShareRevenue(100, []string{"ds1", "ds2"}, owners, nil)
	if math.Abs(split.ArbiterCut-10) > 1e-9 {
		t.Errorf("arbiter cut = %v", split.ArbiterCut)
	}
	// Perfect complements: sellers split the 90 pool evenly.
	if math.Abs(split.SellerCut["seller1"]-45) > 1e-6 || math.Abs(split.SellerCut["seller2"]-45) > 1e-6 {
		t.Errorf("seller cuts = %v", split.SellerCut)
	}
	var total float64
	for _, c := range split.SellerCut {
		total += c
	}
	total += split.ArbiterCut
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("split must conserve revenue: %v", total)
	}
}

func TestShareRevenueZeroAndUnknownOwner(t *testing.T) {
	datasets := []string{"ds1", "ds2"}
	d := &Design{Label: "d", Mechanism: PostedPrice{P: 1}, Allocator: Uniform{}}
	if s := d.ShareRevenue(0, datasets, nil, nil); len(s.SellerCut) != 0 {
		t.Error("zero revenue shares nothing")
	}
	// Unknown owners default to the dataset ID.
	s := d.ShareRevenue(10, datasets, nil, nil)
	if _, ok := s.SellerCut["ds1"]; !ok {
		t.Errorf("cuts = %v", s.SellerCut)
	}
}

// TestShareRevenue25Sources is the settlement-layer regression: a 25-source
// mashup priced through a ShapleyExact design used to panic mid-settlement;
// now it settles with a conserved, near-proportional split.
func TestShareRevenue25Sources(t *testing.T) {
	const n = 25
	// Source i is worth i+1 on its own: an additive game.
	var datasets []string
	rowsOf := map[string]float64{}
	rowID := 0
	for i := 0; i < n; i++ {
		ds := fmt.Sprintf("s%02d/d0", i)
		datasets = append(datasets, ds)
		rowsOf[ds] = float64(i + 1)
		rowID += i + 1
	}
	d := &Design{
		Label: "wide", Goal: GoalRevenue, Type: TypeExternal, Elicitation: ElicitUpfront,
		Mechanism: PostedPrice{P: 100}, Allocator: ShapleyExact{}, ArbiterFee: 0.05,
	}
	split := d.ShareRevenue(100, datasets, nil, additive(rowsOf))
	if len(split.SellerCut) != n {
		t.Fatalf("split covers %d sellers, want %d", len(split.SellerCut), n)
	}
	pool := 100 * (1 - d.ArbiterFee)
	var sum float64
	for ds, cut := range split.SellerCut {
		sum += cut
		wantCut := pool * rowsOf[ds] / float64(rowID)
		if math.Abs(cut-wantCut) > pool*0.01 {
			t.Errorf("%s cut %.4f, want ~%.4f", ds, cut, wantCut)
		}
	}
	if math.Abs(sum+split.ArbiterCut-100) > 1e-6 {
		t.Fatalf("split does not conserve revenue: sellers %.6f + arbiter %.6f != 100", sum, split.ArbiterCut)
	}
}
