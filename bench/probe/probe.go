// Package probe is the benchmark's tracing side: a span recorder, and the
// layer probes that time calls into each layer's public functions on the
// inputs a workload script generates. The probes run in this process, on one
// goroutine, after the HTTP passes; they measure what a layer costs when
// nothing else contends, which is what the gateway-side counters (source S in
// bench/README.md) cannot separate from queueing.
//
// This is the one place the benchmark compiles against internal packages. A
// refactor that renames one of the functions called here must keep a
// function of that meaning callable from here.
package probe

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Spans of one request (or one probe iteration)
// share Trace; Parent names the span that caused this one.
type Span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the benchmark ends.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records one span.
func (r *Recorder) Add(trace, name, parent string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{Trace: trace, Name: name, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano()})
	r.mu.Unlock()
}

// Time runs fn inside a span and returns how long it took.
func (r *Recorder) Time(trace, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.Add(trace, name, parent, start, end)
	return end.Sub(start)
}

// Len reports how many spans are held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// SelfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children (same trace, Parent ==
// its name) cover.
func (r *Recorder) SelfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct{ trace, name string }
	children := map[key][]Span{}
	for _, s := range r.spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		kids := children[key{s.Trace, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// WriteJSONL writes every span as one JSON line.
func (r *Recorder) WriteJSONL(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
