package relation

import "fmt"

// Plan is a small logical query plan over relations. Consumers build one
// with ScanPlan/Join/Project, then Run it as a streaming Iter pipeline with
// one materialization at the end.
type Plan struct {
	root *planNode
}

type pKind uint8

const (
	pScan pKind = iota
	pProject
	pJoin
)

type planNode struct {
	kind        pKind
	rel         *Relation  // pScan
	names       []string   // pProject
	on          []JoinPair // pJoin
	left, right *planNode
}

// ScanPlan starts a plan from a base relation.
func ScanPlan(r *Relation) *Plan {
	return &Plan{root: &planNode{kind: pScan, rel: r}}
}

// Project keeps the named columns, in order.
func (p *Plan) Project(names ...string) *Plan {
	return &Plan{root: &planNode{kind: pProject, names: names, left: p.root}}
}

// Join inner-equi-joins p with right on the given column pairs, with the
// same naming rules as HashJoin.
func (p *Plan) Join(right *Plan, on ...JoinPair) *Plan {
	return &Plan{root: &planNode{kind: pJoin, on: on, left: p.root, right: right.root}}
}

// displayName mirrors the eager API's result naming: joins concatenate their
// inputs with "⋈"; every other operator passes its input's name through.
func (n *planNode) displayName() string {
	switch n.kind {
	case pScan:
		return n.rel.Name
	case pJoin:
		return n.left.displayName() + "⋈" + n.right.displayName()
	default:
		return n.left.displayName()
	}
}

// Iter compiles the plan into a streaming pipeline.
func (p *Plan) Iter() (Iter, error) { return p.root.iter() }

func (n *planNode) iter() (Iter, error) {
	switch n.kind {
	case pScan:
		return NewScan(n.rel), nil
	case pProject:
		src, err := n.left.iter()
		if err != nil {
			return nil, err
		}
		return NewProject(src, n.names...)
	case pJoin:
		l, err := n.left.iter()
		if err != nil {
			return nil, err
		}
		r, err := n.right.iter()
		if err != nil {
			l.Close()
			return nil, err
		}
		return NewHashJoin(l, r, n.left.displayName(), n.right.displayName(), n.on...)
	}
	return nil, fmt.Errorf("relation: plan: unknown node kind %d", n.kind)
}

// Run executes and materializes the plan. The result is named like the
// equivalent eager join chain (inputs concatenated with "⋈").
func (p *Plan) Run() (*Relation, error) {
	it, err := p.Iter()
	if err != nil {
		return nil, err
	}
	out, err := Materialize(it)
	if err != nil {
		return nil, err
	}
	out.Name = p.root.displayName()
	return out, nil
}
