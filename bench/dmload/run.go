package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/bench/workloads"
)

// setupRuns is how many times a run sets a gateway up from scratch; setup_s
// is the median, which keeps one slow exec or one missed epoch tick out of it.
const setupRuns = 5

// A run SIGKILLs and reboots the gateway on its WAL at least recoverRuns
// times, and goes on until the reboots have taken recoverFor together or
// there are recoverMax of them; recovery_s is the median. A federation's
// replay takes under 0.1 s, where one slow exec or directory fsync is a third
// of the reading, so it gets the most repeats; a 2.5 s replay gets three.
const (
	recoverRuns = 3
	recoverMax  = 9
	recoverFor  = time.Second
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass over one workload reports; it marshals to the
// benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every pass needs: the gateway binary, a scratch directory
// inside the checkout for WAL dirs, the directory run outputs land in, and
// where the human-readable report goes.
type env struct {
	bin  string
	work string
	out  string
	log  io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// seedGateway boots a gateway over a fresh WAL directory and plays the
// script's set-up ops (registrations, base shares). It returns once every
// set-up ticket is done; took runs from exec until then — the seller-side
// cost of getting a catalog listed.
func seedGateway(e *env, sc *workloads.Script, walDir string, metrics bool) (*gateway, time.Duration, error) {
	start := time.Now()
	g, _, err := startGateway(e.bin, sc.Spec, walDir, metrics)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	tickets := make([]string, 0, len(sc.Setup))
	for i := range sc.Setup {
		code, ticket := post(c, g.base, &sc.Setup[i])
		if code != http.StatusAccepted {
			g.kill()
			return nil, 0, fmt.Errorf("set-up POST %s answered %d", sc.Setup[i].Path, code)
		}
		tickets = append(tickets, ticket)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range tickets {
		for {
			var tv ticketView
			if err := getJSON(c, g.base+"/async/tickets/"+id, &tv); err != nil {
				g.kill()
				return nil, 0, err
			}
			if tv.Status == "done" {
				break
			}
			if tv.Status == "failed" || time.Now().After(deadline) {
				g.kill()
				return nil, 0, fmt.Errorf("set-up ticket %s is %q: %s", id, tv.Status, tv.Err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return g, time.Since(start), nil
}

// session is one seeded gateway with the observer and traffic driver
// attached to it.
type session struct {
	g      *gateway
	obs    observer
	tr     *traffic
	walDir string
	setup  time.Duration // exec until the catalog was listed
	closed bool
}

// openSession seeds a gateway over a fresh WAL directory and attaches an
// observer and a traffic driver. The caller removes walDir when done with it.
func openSession(e *env, sc *workloads.Script, metrics bool) (*session, error) {
	dir, err := os.MkdirTemp(e.work, "wal-")
	if err != nil {
		return nil, err
	}
	g, took, err := seedGateway(e, sc, dir, metrics)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("setup: %w", err)
	}
	obs := newObserver(sc.Spec, g.base)
	return &session{g: g, obs: obs, walDir: dir, setup: took,
		tr: &traffic{c: newClient(senders), base: g.base, obs: obs, limit: sc.Spec.Limit}}, nil
}

// close stops the observer and SIGKILLs the gateway; the WAL stays on disk.
func (s *session) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.obs.stop()
	s.tr.c.CloseIdleConnections()
	s.g.kill()
}

func newObserver(spec workloads.Spec, base string) observer {
	if spec.Shards > 1 {
		return newTicketPoller(base)
	}
	return newEventTailer(base)
}

// accepted counts the requests of a phase the gateway took in.
func accepted(recs []sent) int {
	n := 0
	for i := range recs {
		if recs[i].op.Group >= 0 && recs[i].code == http.StatusAccepted {
			n++
		}
	}
	return n
}

// traffic drives one gateway through warm-up and the measured phases and
// keeps the running total of accepted requests, so each phase can wait for
// exactly its own settlements.
type traffic struct {
	c        *http.Client
	base     string
	obs      observer
	limit    time.Duration
	accepted int
	all      []sent // every record of the pass, for verify
}

// phase fires ops on their schedule, then waits for every accepted request
// to resolve, at most grace past the last due time.
func (t *traffic) phase(ops []workloads.Op, grace time.Duration) []sent {
	start := time.Now().Add(5 * time.Millisecond)
	recs := fire(t.c, t.base, ops, start, t.obs)
	t.accepted += accepted(recs)
	t.all = append(t.all, recs...)
	var lastDue time.Duration
	if len(ops) > 0 {
		lastDue = ops[len(ops)-1].Due
	}
	deadline := start.Add(lastDue + grace)
	if min := time.Now().Add(t.limit); deadline.Before(min) {
		deadline = min
	}
	waitOutcomes(t.obs, t.accepted, deadline)
	return recs
}

// untracedPass is the pass that yields the end-to-end metrics: set-up (several
// times), warm-up, steady, drain, recover, verify — telemetry off.
func untracedPass(e *env, sc *workloads.Script, seconds float64) (*result, error) {
	spec := sc.Spec
	quiesceDisk()
	res := &result{Metrics: map[string]metric{}}

	// setup: every run but the last is torn down again; the last one serves
	// the rest of the pass.
	var ses *session
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		s, err := openSession(e, sc, false)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(s.walDir)
		defer s.close()
		setups = append(setups, s.setup.Seconds())
		if i < setupRuns-1 {
			s.close()
			continue
		}
		ses = s
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	g, obs, tr := ses.g, ses.obs, ses.tr

	tr.phase(sc.Warm, 5*spec.Limit) // discarded: caches fill, connections open

	rss := g.sampleRSS(50 * time.Millisecond)
	defer rss.mean() // stops the sampler on the error paths too
	steady := reckon(tr.phase(sc.Steady, spec.Limit), obs, spec.Limit)

	// drain: the burst goes out back to back; give it several times its
	// designed length before calling the stragglers failed.
	drainGrace := time.Duration(4*workloads.DrainShare*seconds*float64(time.Second)) + 5*spec.Limit
	burst := reckon(tr.phase(sc.Burst, drainGrace), obs, drainGrace)

	res.Attempted = steady.attempted + burst.attempted
	res.Failed = steady.failed + burst.failed
	res.Metrics["settle_p50_ms"] = metric{quantile(steady.latencies, 0.50), "ms"}
	res.Metrics["settle_p95_ms"] = metric{quantile(steady.latencies, 0.95), "ms"}
	drainS := burst.last.Sub(burst.first).Seconds()
	res.Metrics["capacity_rps"] = metric{float64(len(burst.latencies)) / drainS, "req/s"}
	e.logf("  steady: %d requests at %g/s, %d latency samples (supports up to p%.2f), gen lag p99 %.3f ms, failed %d",
		steady.attempted, spec.Rate, len(steady.latencies), supportedPercentile(len(steady.latencies)),
		quantile(steady.genLag, 0.99), steady.failed)
	e.logf("  drain: %d requests back to back settled in %.3f s, failed %d", burst.attempted, drainS, burst.failed)

	res.Metrics["gateway_rss_mean_mb"] = metric{rss.mean(), "MB"}
	peak, err := g.procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	e.logf("  memory: resident set peaked at %.1f MB (VmHWM)", peak)

	// recover: SIGKILL keeps the OS page cache, so this times WAL replay, not
	// recovery from power loss.
	before, err := captureState(g.base, sc, obs.outcomes())
	if err != nil {
		return nil, fmt.Errorf("pre-kill state: %w", err)
	}
	ses.close()
	defer func() { g.kill() }() // whichever reboot is the last
	var recoveries []float64
	var spent time.Duration
	for len(recoveries) < recoverRuns || (spent < recoverFor && len(recoveries) < recoverMax) {
		g.kill()
		var took time.Duration
		if g, took, err = startGateway(e.bin, spec, ses.walDir, false); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		recoveries = append(recoveries, took.Seconds())
		spent += took
	}
	res.Metrics["recovery_s"] = metric{median(recoveries), "s"}
	e.logf("  recover: replayed %d events in %.3f s (median of %d reboots)", before.events, median(recoveries), len(recoveries))

	after, err := captureState(g.base, sc, 0)
	if err != nil {
		return nil, fmt.Errorf("post-recovery state: %w", err)
	}
	problems := verify(sc, obs, tr.all, before, after)
	for _, p := range problems {
		e.logf("  VERIFY FAILED: %s", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// quiesceDisk flushes what earlier runs left for the kernel to write back:
// dirty WAL pages and, on filesystems mounted with discard, the trims their
// deleted WAL directories queued. Back-to-back runs otherwise pay for their
// predecessor's I/O (fsync-always drained 20 % slower right after a run than
// after a pause).
func quiesceDisk() { syscall.Sync() }

// workDir creates the scratch directory for WAL dirs and binaries inside the
// current directory (the checkout): the benchmark writes nowhere else.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "dmload")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
