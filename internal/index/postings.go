package index

import (
	"cmp"
	"slices"

	"repro/internal/profile"
)

// postings is Add's candidate source: per MinHash slot, an inverted list from
// the value a column holds in that slot to the columns holding it.
//
// It finds every pair that can make an edge. A pair estimates a Jaccard above
// zero only by holding the same value in some slot, and an edge needs at
// least MinJaccard > 0, which Build enforces. So the columns sharing a slot
// value with a new column include all its partners, and they are the few
// that overlap it, not the catalog.
//
// Lists are keyed by the slot value's top 32 bits, which halves their memory:
// equal values always share a key, so no partner is lost, and the rare
// stranger a key collision adds is dropped by tryEdge, which computes the
// exact estimate. Columns are int32 ordinals into cols, and each list is a
// chain threaded through next: heads holds the newest ordinal on a key, and
// next[o][slot] the one indexed before o (-1 ends the chain).
type postings struct {
	heads [profile.MinHashSize]map[uint32]int32
	next  [][profile.MinHashSize]int32
	cols  []colAt // ordinal -> column; dp is nil while the ordinal is free
	free  []int32
}

// colAt locates a posted column: column ci of dataset profile dp.
type colAt struct {
	dp *profile.DatasetProfile
	ci int
}

func newPostings() postings {
	var p postings
	for s := range p.heads {
		p.heads[s] = map[uint32]int32{}
	}
	return p
}

func postingKey(v uint64) uint32 { return uint32(v >> 32) }

// add posts column ci of dp.
func (p *postings) add(dp *profile.DatasetProfile, ci int) {
	var o int32
	if n := len(p.free); n > 0 {
		o, p.free = p.free[n-1], p.free[:n-1]
	} else {
		o = int32(len(p.cols))
		p.cols = append(p.cols, colAt{})
		p.next = append(p.next, [profile.MinHashSize]int32{})
	}
	p.cols[o] = colAt{dp, ci}
	sk := &dp.Columns[ci].Sketch
	for s := range p.heads {
		k := postingKey(sk[s])
		head, ok := p.heads[s][k]
		if !ok {
			head = -1
		}
		p.next[o][s] = head
		p.heads[s][k] = o
	}
}

// remove unposts column ci of dp, walking only the chains its own slot values
// key, and drops every key it leaves empty.
func (p *postings) remove(dp *profile.DatasetProfile, ci int) {
	sk := &dp.Columns[ci].Sketch
	o := p.heads[0][postingKey(sk[0])]
	for p.cols[o] != (colAt{dp, ci}) {
		o = p.next[o][0]
	}
	for s := range p.heads {
		k := postingKey(sk[s])
		if p.heads[s][k] == o {
			if p.next[o][s] < 0 {
				delete(p.heads[s], k)
			} else {
				p.heads[s][k] = p.next[o][s]
			}
			continue
		}
		prev := p.heads[s][k]
		for p.next[prev][s] != o {
			prev = p.next[prev][s]
		}
		p.next[prev][s] = p.next[o][s]
	}
	p.cols[o] = colAt{}
	p.free = append(p.free, o)
}

// candidates appends to buf, once each, the posted columns sharing a slot
// key with sk, ordered by dataset name and then column position — the order
// Add offered existing columns in when it compared against every one, which
// the join graph's tie order (EdgesFor) keeps.
func (p *postings) candidates(sk *profile.MinHash, buf []int32) []int32 {
	for s := range p.heads {
		o, ok := p.heads[s][postingKey(sk[s])]
		if !ok {
			continue
		}
		for ; o >= 0; o = p.next[o][s] {
			buf = append(buf, o)
		}
	}
	slices.Sort(buf)
	buf = slices.Compact(buf)
	slices.SortFunc(buf, func(x, y int32) int {
		a, b := p.cols[x], p.cols[y]
		return cmp.Or(cmp.Compare(a.dp.Dataset, b.dp.Dataset), cmp.Compare(a.ci, b.ci))
	})
	return buf
}
