// Package crowd implements humans-in-the-loop for the Mashup Builder (paper
// §5.4): "directly incorporate humans-in-the-loop as part of the mashup
// builder's normal operation ... Because all this takes place in the context
// of a market, it becomes possible to compensate humans according to the
// value they are creating." When the DoD engine cannot assemble a mashup
// automatically (an ambiguous mapping, a missing semantic annotation), the
// arbiter posts a task with a bounty; workers claim tasks, submit answers
// (mapping tables), and are paid from the market ledger once an answer is
// accepted — with majority agreement among redundant answers standing in for
// quality control, as in CrowdDB-style crowdsourced query answering.
package crowd

import (
	"fmt"
	"sync"

	"repro/internal/ledger"
	"repro/internal/relation"
)

// TaskKind is what the human is asked to do.
type TaskKind string

// Task kinds the mashup builder posts.
const (
	// KindMapping asks for a mapping table between two attributes.
	KindMapping TaskKind = "mapping"
	// KindLabel asks whether two columns refer to the same real-world
	// attribute (schema matching judgement).
	KindLabel TaskKind = "label"
)

// Task is one unit of human work with a bounty.
type Task struct {
	ID       string
	Kind     TaskKind
	Dataset  string
	Column   string
	Target   string
	Bounty   float64
	Quorum   int // answers needed before adjudication
	Open     bool
	Accepted *Answer
}

// Answer is a worker's submission.
type Answer struct {
	Worker string
	// Table is the mapping table for KindMapping.
	Table *relation.Relation
	// Match is the judgement for KindLabel.
	Match bool
}

// Board is the task marketplace.
type Board struct {
	mu      sync.Mutex
	ledger  *ledger.Ledger
	funder  string // account bounties are paid from (the arbiter)
	tasks   map[string]*Task
	answers map[string][]Answer
	nextID  int
}

// NewBoard creates a board paying bounties from the funder account.
func NewBoard(l *ledger.Ledger, funder string) *Board {
	return &Board{ledger: l, funder: funder, tasks: map[string]*Task{}, answers: map[string][]Answer{}}
}

// Post creates a task. Bounty is escrowed immediately so workers can trust
// payment.
func (b *Board) Post(kind TaskKind, dataset, column, target string, bounty float64, quorum int) (*Task, error) {
	if bounty <= 0 {
		return nil, fmt.Errorf("crowd: bounty must be positive")
	}
	if quorum < 1 {
		quorum = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	t := &Task{
		ID:   fmt.Sprintf("task-%04d", b.nextID),
		Kind: kind, Dataset: dataset, Column: column, Target: target,
		Bounty: bounty, Quorum: quorum, Open: true,
	}
	if err := b.ledger.Hold(t.ID, b.funder, ledger.FromFloat(bounty), "crowd bounty"); err != nil {
		return nil, err
	}
	b.tasks[t.ID] = t
	return t, nil
}

// Submit records a worker's answer. When the quorum is reached the task is
// adjudicated: for KindLabel the majority judgement wins and majority voters
// split the bounty; for KindMapping the first answer consistent with the
// majority's row count is accepted and paid in full (ties favour the
// earliest submission).
func (b *Board) Submit(taskID string, ans Answer) (adjudicated bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tasks[taskID]
	if !ok {
		return false, fmt.Errorf("crowd: no task %q", taskID)
	}
	if !t.Open {
		return false, fmt.Errorf("crowd: task %q closed", taskID)
	}
	if t.Kind == KindMapping && ans.Table == nil {
		return false, fmt.Errorf("crowd: mapping task needs a table")
	}
	for _, prev := range b.answers[taskID] {
		if prev.Worker == ans.Worker {
			return false, fmt.Errorf("crowd: %s already answered %s", ans.Worker, taskID)
		}
	}
	b.answers[taskID] = append(b.answers[taskID], ans)
	if len(b.answers[taskID]) < t.Quorum {
		return false, nil
	}
	return true, b.adjudicate(t)
}

func (b *Board) adjudicate(t *Task) error {
	answers := b.answers[t.ID]
	t.Open = false
	switch t.Kind {
	case KindLabel:
		yes := 0
		for _, a := range answers {
			if a.Match {
				yes++
			}
		}
		majority := yes*2 >= len(answers)
		var winners []string
		for _, a := range answers {
			if a.Match == majority {
				winners = append(winners, a.Worker)
			}
		}
		t.Accepted = &Answer{Match: majority}
		return b.payout(t.ID, winners)
	case KindMapping:
		// Majority row-count as a cheap consistency signal.
		counts := map[int]int{}
		for _, a := range answers {
			counts[a.Table.NumRows()]++
		}
		bestN, bestC := -1, -1
		for n, c := range counts {
			if c > bestC || (c == bestC && n > bestN) {
				bestN, bestC = n, c
			}
		}
		for i := range answers {
			if answers[i].Table.NumRows() == bestN {
				t.Accepted = &answers[i]
				return b.payout(t.ID, []string{answers[i].Worker})
			}
		}
	}
	return fmt.Errorf("crowd: task %s could not be adjudicated", t.ID)
}

// payout splits the escrowed bounty among winners.
func (b *Board) payout(taskID string, winners []string) error {
	if len(winners) == 0 {
		return b.ledger.Release(taskID, b.funder, b.ledger.Escrowed(taskID), "no winners, refund")
	}
	total := b.ledger.Escrowed(taskID)
	// Release to funder then fan out equal shares (exact escrow semantics).
	if err := b.ledger.Release(taskID, b.funder, total, "adjudicated "+taskID); err != nil {
		return err
	}
	share := ledger.Currency(int64(total) / int64(len(winners)))
	for _, w := range winners {
		if err := b.ledger.Transfer(b.funder, w, share, "bounty "+taskID); err != nil {
			return err
		}
	}
	return nil
}

// Accepted returns the accepted answer for a task, if adjudicated.
func (b *Board) Accepted(taskID string) (*Answer, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tasks[taskID]
	if !ok {
		return nil, fmt.Errorf("crowd: no task %q", taskID)
	}
	if t.Accepted == nil {
		return nil, fmt.Errorf("crowd: task %q not adjudicated", taskID)
	}
	return t.Accepted, nil
}
