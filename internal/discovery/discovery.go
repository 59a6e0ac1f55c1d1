// Package discovery is the data-discovery API of the Mashup Builder (the
// Aurum role in the paper, §5): given the indexes built by internal/index it
// finds the columns that match a keyword and hands DoD the profiles and the
// join graph.
package discovery

import (
	"sort"

	"repro/internal/index"
	"repro/internal/profile"
)

// Engine wraps an index with search operations.
type Engine struct {
	ix *index.Index
}

// New creates a discovery engine over a built index.
func New(ix *index.Index) *Engine { return &Engine{ix: ix} }

// Hit is one search result with a relevance score in (0,1].
type Hit struct {
	Ref   index.ColRef
	Score float64
}

// SearchColumns finds columns matching any of the keywords, scored by the
// fraction of keywords hit (column-name token hits count double value hits).
func (e *Engine) SearchColumns(keywords ...string) []Hit {
	if len(keywords) == 0 {
		return nil
	}
	scores := map[index.ColRef]float64{}
	for _, kw := range keywords {
		for _, tok := range index.Tokenize(kw) {
			for _, ref := range e.ix.Lookup(tok) {
				scores[ref] += 1.0 / float64(len(keywords))
			}
		}
	}
	out := make([]Hit, 0, len(scores))
	for ref, s := range scores {
		if s > 1 {
			s = 1
		}
		out = append(out, Hit{Ref: ref, Score: s})
	}
	sortHits(out)
	return out
}

// Profile exposes the stored dataset profile.
func (e *Engine) Profile(dataset string) *profile.DatasetProfile { return e.ix.Profile(dataset) }

// Index exposes the underlying index (the DoD engine needs the join graph).
func (e *Engine) Index() *index.Index { return e.ix }

func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		if hits[i].Ref.Dataset != hits[j].Ref.Dataset {
			return hits[i].Ref.Dataset < hits[j].Ref.Dataset
		}
		return hits[i].Ref.Column < hits[j].Ref.Column
	})
}
