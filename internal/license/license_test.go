package license

import (
	"reflect"
	"testing"
)

func TestTermsValidate(t *testing.T) {
	ok := []Terms{
		{Kind: Open},
		{Kind: NoResale},
		{Kind: Transfer},
		{Kind: Exclusive, ExclusivityTaxRate: 0.1},
		{Kind: Exclusive},
	}
	for _, terms := range ok {
		if err := terms.Validate(); err != nil {
			t.Errorf("valid terms %+v rejected: %v", terms, err)
		}
	}
	bad := []Terms{
		{Kind: Open, ExclusivityTaxRate: 0.1},
		{Kind: Exclusive, ExclusivityTaxRate: -1},
		{Kind: "bogus"},
	}
	for _, terms := range bad {
		if err := terms.Validate(); err == nil {
			t.Errorf("invalid terms %+v accepted", terms)
		}
	}
}

func TestSupply(t *testing.T) {
	if (Terms{Kind: Open}).Supply() != -1 || (Terms{Kind: NoResale}).Supply() != -1 {
		t.Error("replicable licenses have unlimited supply")
	}
	if (Terms{Kind: Exclusive}).Supply() != 1 || (Terms{Kind: Transfer}).Supply() != 1 {
		t.Error("exclusive/transfer supply must be 1")
	}
}

// TestExclusivityEnforced: the first sale of an exclusive dataset makes its
// holder; a later sale leaves the holder, and the tax, with the first buyer.
func TestExclusivityEnforced(t *testing.T) {
	m := NewManager()
	exclusive := Terms{Kind: Exclusive, ExclusivityTaxRate: 0.05}
	if err := m.SetTerms("d1", exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.SetTerms("d2", Terms{Kind: Transfer}); err != nil {
		t.Fatal(err)
	}
	m.Issue("d1", "alice", 200)
	m.Issue("d1", "bob", 100)
	m.Issue("d2", "bob", 50)
	want := Holder{Beneficiary: "alice", SalePrice: 200, Terms: exclusive}
	if h, ok := m.HolderOf("d1"); !ok || h != want {
		t.Errorf("holder of d1 = %+v, %v; want %+v", h, ok, want)
	}
	if h, _ := m.HolderOf("d1"); h.TaxDue() != 10 {
		t.Errorf("tax = %v", h.TaxDue())
	}
	if h, _ := m.HolderOf("d2"); h.TaxDue() != 0 {
		t.Error("a transfer owes no exclusivity tax")
	}
	if taxes := m.PeriodTaxes(); !reflect.DeepEqual(taxes, map[string]float64{"alice": 10}) {
		t.Errorf("period taxes = %v", taxes)
	}
	// A snapshot round trip carries the holders.
	m2 := NewManager()
	m2.RestoreHolders(m.Holders())
	if !reflect.DeepEqual(m2.Holders(), m.Holders()) || !reflect.DeepEqual(m2.PeriodTaxes(), m.PeriodTaxes()) {
		t.Errorf("restored holders %v, want %v", m2.Holders(), m.Holders())
	}
}

func TestResaleRights(t *testing.T) {
	for kind, want := range map[Kind]bool{Open: true, Transfer: true, NoResale: false, Exclusive: false} {
		if got := (Terms{Kind: kind}).CanResell(); got != want {
			t.Errorf("%s terms: CanResell = %v, want %v", kind, got, want)
		}
	}
}

func TestDefaultTermsOpen(t *testing.T) {
	m := NewManager()
	if m.TermsFor("unknown").Kind != Open {
		t.Error("default terms must be open")
	}
	// Sales of a dataset without terms are open sales: no holder, no state.
	m.Issue("unknown", "a", 1)
	m.Issue("unknown", "b", 1)
	if _, ok := m.HolderOf("unknown"); ok || len(m.Holders()) != 0 {
		t.Errorf("open sales recorded holders %v", m.Holders())
	}
}
