package crowd

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/relation"
)

func mkBoard(t *testing.T) (*Board, *ledger.Ledger) {
	t.Helper()
	l := ledger.New()
	for _, a := range []string{"arbiter", "w1", "w2", "w3"} {
		if err := l.Open(a, ledger.FromFloat(100)); err != nil {
			t.Fatal(err)
		}
	}
	return NewBoard(l, "arbiter"), l
}

func mapTable(n int) *relation.Relation {
	r := relation.New("m", relation.NewSchema(
		relation.Col("from", relation.KindString), relation.Col("to", relation.KindString)))
	for i := 0; i < n; i++ {
		r.MustAppend(relation.String_(string(rune('a'+i))), relation.String_(string(rune('A'+i))))
	}
	return r
}

func TestPostEscrowsBounty(t *testing.T) {
	b, l := mkBoard(t)
	task, err := b.Post(KindMapping, "s2", "f_d", "d", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Balance("arbiter").Float() != 70 {
		t.Errorf("funder balance = %v", l.Balance("arbiter"))
	}
	if l.Escrowed(task.ID).Float() != 30 {
		t.Errorf("escrow = %v", l.Escrowed(task.ID))
	}
	if _, err := b.Post(KindMapping, "x", "a", "b", -1, 1); err == nil {
		t.Error("negative bounty must fail")
	}
	if _, err := b.Post(KindMapping, "x", "a", "b", 10000, 1); err == nil {
		t.Error("bounty beyond funder balance must fail")
	}
}

func TestMappingTaskAdjudication(t *testing.T) {
	b, l := mkBoard(t)
	task, _ := b.Post(KindMapping, "s2", "f_d", "d", 30, 3)
	done, err := b.Submit(task.ID, Answer{Worker: "w1", Table: mapTable(5)})
	if err != nil || done {
		t.Fatalf("first answer: done=%v err=%v", done, err)
	}
	if _, err := b.Submit(task.ID, Answer{Worker: "w1", Table: mapTable(5)}); err == nil {
		t.Error("double answer by same worker must fail")
	}
	if _, err := b.Submit(task.ID, Answer{Worker: "w2", Table: mapTable(5)}); err != nil {
		t.Fatal(err)
	}
	done, err = b.Submit(task.ID, Answer{Worker: "w3", Table: mapTable(2)})
	if err != nil || !done {
		t.Fatalf("quorum answer: done=%v err=%v", done, err)
	}
	// Majority row count = 5; w1's (earliest consistent) answer accepted and
	// paid in full.
	acc, err := b.Accepted(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Worker != "w1" || acc.Table.NumRows() != 5 {
		t.Errorf("accepted = %+v", acc)
	}
	if l.Balance("w1").Float() != 130 {
		t.Errorf("w1 balance = %v", l.Balance("w1"))
	}
	if l.Balance("w3").Float() != 100 {
		t.Errorf("inconsistent worker must not be paid: %v", l.Balance("w3"))
	}
	// Closed task rejects more answers.
	if _, err := b.Submit(task.ID, Answer{Worker: "w2", Table: mapTable(5)}); err == nil {
		t.Error("closed task must reject answers")
	}
}

func TestLabelTaskMajoritySplits(t *testing.T) {
	b, l := mkBoard(t)
	task, _ := b.Post(KindLabel, "a", "col1", "col2", 30, 3)
	_, _ = b.Submit(task.ID, Answer{Worker: "w1", Match: true})
	_, _ = b.Submit(task.ID, Answer{Worker: "w2", Match: true})
	done, err := b.Submit(task.ID, Answer{Worker: "w3", Match: false})
	if err != nil || !done {
		t.Fatal(err)
	}
	acc, _ := b.Accepted(task.ID)
	if !acc.Match {
		t.Error("majority said match")
	}
	if l.Balance("w1").Float() != 115 || l.Balance("w2").Float() != 115 {
		t.Errorf("majority voters split bounty: %v %v", l.Balance("w1"), l.Balance("w2"))
	}
	if l.Balance("w3").Float() != 100 {
		t.Errorf("minority unpaid: %v", l.Balance("w3"))
	}
}

func TestValidationErrors(t *testing.T) {
	b, _ := mkBoard(t)
	if _, err := b.Submit("nope", Answer{Worker: "w1"}); err == nil {
		t.Error("unknown task must fail")
	}
	task, _ := b.Post(KindMapping, "d", "a", "b", 10, 1)
	if _, err := b.Submit(task.ID, Answer{Worker: "w1"}); err == nil {
		t.Error("mapping answer without table must fail")
	}
	if _, err := b.Accepted(task.ID); err == nil {
		t.Error("unadjudicated accepted must fail")
	}
}
