package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of the gateway's own telemetry: every /metrics
// sample by its full series name, plus the /engine/stats counters /metrics
// does not carry on every gateway shape (a federation's registry omits the
// per-engine sampled families).
type scrape struct {
	at      time.Time
	samples map[string]float64
	stats   engineStats
}

// engineStats is the part of GET /engine/stats the layer metrics use.
type engineStats struct {
	Epochs        float64 `json:"epochs"`
	Matched       float64 `json:"matched"`
	Failed        float64 `json:"failed"`
	Rejected      float64 `json:"rejected"`
	BuildMillis   float64 `json:"build_millis"`
	CacheHits     float64 `json:"cache_hits"`
	SubJoinHits   float64 `json:"subjoin_hits"`
	AllocEvals    float64 `json:"alloc_evals"`
	AllocMemoHits float64 `json:"alloc_memo_hits"`
	Federation    struct {
		Pending   float64 `json:"coordinator_pending"`
		Committed float64 `json:"xtx_committed"`
		Aborted   float64 `json:"xtx_aborted"`
	} `json:"federation"`
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func takeScrape(c *http.Client, base string) (*scrape, error) {
	s := &scrape{at: time.Now()}
	var err error
	if s.samples, err = parseMetrics(c, base); err != nil {
		return nil, err
	}
	if err := getJSON(c, base+"/engine/stats", &s.stats); err != nil {
		return nil, err
	}
	return s, nil
}

// window is the difference between two scrapes.
type window struct{ from, to *scrape }

// delta is the growth of one series over the window (absent series read 0).
func (w window) delta(series string) float64 {
	return w.to.samples[series] - w.from.samples[series]
}

// hist returns the growth of a histogram's sum and count; labels is the
// rendered label string without braces ("" for none).
func (w window) hist(name, labels string) (sum, count float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return w.delta(name + "_sum" + suffix), w.delta(name + "_count" + suffix)
}

// ratio is a/b, or 0 when b is 0: a layer that did nothing in the window
// reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMean is the mean observation of a histogram over the window, scaled
// (1e3 for ms, 1e6 for us).
func (w window) histMean(name, labels string, scale float64) float64 {
	sum, count := w.hist(name, labels)
	return ratio(sum, count) * scale
}
