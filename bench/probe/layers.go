package probe

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/workloads"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dmms"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// Measure is one probe result with its unit.
type Measure struct {
	Value float64
	Unit  string
}

// design is the market design every benchmark gateway runs.
const design = "posted-baseline"

// batch mirrors the gateways' -batch 64: probes that time a round or an
// epoch do so at the batch size the HTTP passes kick epochs at.
const batch = 64

// request is one scripted request decoded into the engine's own types.
type request struct {
	body []byte
	want dod.Want
	fn   *wtp.Function
}

// inputs are a script's ops decoded for in-process calls.
type inputs struct {
	sc       *workloads.Script
	buyers   []dmms.ParticipantReq
	bases    []dmms.DatasetReq
	requests []request
	groups   []dod.Want // one want per group
}

func decode(sc *workloads.Script) (*inputs, error) {
	in := &inputs{sc: sc}
	for _, op := range sc.Setup {
		switch op.Path {
		case "/async/participants":
			var p dmms.ParticipantReq
			if err := json.Unmarshal(op.Body, &p); err != nil {
				return nil, err
			}
			in.buyers = append(in.buyers, p)
		case "/async/datasets":
			var d dmms.DatasetReq
			if err := json.Unmarshal(op.Body, &d); err != nil {
				return nil, err
			}
			in.bases = append(in.bases, d)
		}
	}
	for _, cols := range sc.Groups {
		in.groups = append(in.groups, dod.Want{Columns: cols})
	}
	for _, phase := range [][]workloads.Op{sc.Steady, sc.Burst} {
		for _, op := range phase {
			if op.Group < 0 {
				continue
			}
			var r dmms.RequestReq
			if err := json.Unmarshal(op.Body, &r); err != nil {
				return nil, err
			}
			fn := &wtp.Function{Buyer: r.Buyer, Task: wtp.CoverageTask{Columns: r.Columns, WantRows: r.Task.WantRows}}
			for _, c := range r.Curve {
				fn.Curve = append(fn.Curve, wtp.CurvePoint{MinSatisfaction: c.MinSatisfaction, Price: c.Price})
			}
			in.requests = append(in.requests, request{body: op.Body, want: dod.Want{Columns: r.Columns}, fn: fn})
		}
	}
	if len(in.requests) == 0 || len(in.bases) < 2 {
		return nil, fmt.Errorf("probe: script too small (%d requests, %d bases)", len(in.requests), len(in.bases))
	}
	// A short run's script is cycled: the probes want whole batches, and a
	// repeated request is as good an input as a fresh one.
	for len(in.requests) < 16*batch {
		in.requests = append(in.requests, in.requests...)
	}
	return in, nil
}

func shareBase(p *core.Platform, d dmms.DatasetReq) error {
	return p.ShareDataset(d.Seller, catalog.DatasetID(d.ID), d.Relation,
		wtp.DatasetMeta{Dataset: d.ID, HasProvenance: true}, license.Terms{Kind: license.Open})
}

// platform returns a fresh in-memory platform holding the script's buyers
// and bases, and how long each base's ShareDataset took.
func (in *inputs) platform() (*core.Platform, []time.Duration, error) {
	p, err := core.NewPlatform(core.Options{Design: design})
	if err != nil {
		return nil, nil, err
	}
	for _, b := range in.buyers {
		if err := p.RegisterParticipant(b.Name, b.Funds); err != nil {
			return nil, nil, err
		}
	}
	var took []time.Duration
	for _, d := range in.bases {
		start := time.Now()
		if err := shareBase(p, d); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(start))
	}
	return p, took, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Layers runs every layer probe on the script's inputs and returns the P
// metrics of bench/README.md by name. walDir is the WAL directory the traced
// gateway left behind; scratch is a directory the probes may write under.
// Metrics of a layer the workload does not have (federation on a single
// arbiter) are reported as 0.
func Layers(sc *workloads.Script, walDir, scratch string, rec *Recorder) (map[string]Measure, error) {
	in, err := decode(sc)
	if err != nil {
		return nil, err
	}
	out := map[string]Measure{}
	for _, probe := range []func(*inputs, *Recorder, map[string]Measure) error{
		probeIntake, probeRound, probeBuild, probeJoin, probeSplit, probeFederation,
	} {
		if err := probe(in, rec, out); err != nil {
			return nil, err
		}
	}
	if err := probeWAL(in, walDir, scratch, rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeIntake times the HTTP handler for POST /async/requests (httptest, no
// socket) and Engine.SubmitRequest on the same requests; the difference of
// the medians is the dmms codec's own cost. Every batch of 64 it runs one
// epoch, whose time less the price stage (which holds the inline builds) is
// the engine's own.
func probeIntake(in *inputs, rec *Recorder, out map[string]Measure) error {
	p, shares, err := in.platform()
	if err != nil {
		return err
	}
	out["index.share_ms"] = Measure{msf(median(shares)), "ms"}
	eng := engine.New(p, engine.Config{BatchThreshold: 0})
	defer eng.Stop()
	srv := dmms.NewEngineServer(p, eng)

	n := min(len(in.requests), 32*batch) / batch * batch // whole batches: every request sees an epoch
	var handler, submit, epochSelf []time.Duration
	epoch := func(trace string) {
		before := eng.Stats()
		d := rec.Time(trace, "engine.epoch", "", func() { eng.TriggerEpoch() })
		after := eng.Stats()
		// No builder pool here, so builds run inside the price stage and
		// PriceMillis already covers them.
		price := time.Duration((after.PriceMillis - before.PriceMillis) * float64(time.Millisecond))
		epochSelf = append(epochSelf, d-price)
	}
	for i := 0; i < n; i++ {
		r := in.requests[i]
		trace := fmt.Sprintf("probe-post-%d", i)
		req := httptest.NewRequest(http.MethodPost, "/async/requests", bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		handler = append(handler, rec.Time(trace, "dmms.post_requests", "", func() { srv.ServeHTTP(w, req) }))
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("probe: handler answered %d: %s", w.Code, w.Body)
		}
		if (i+1)%batch == 0 {
			epoch(trace)
		}
	}
	for i := 0; i < n; i++ {
		r := in.requests[i]
		trace := fmt.Sprintf("probe-submit-%d", i)
		var serr error
		submit = append(submit, rec.Time(trace, "engine.submit", "", func() { _, serr = eng.SubmitRequest(r.want, r.fn) }))
		if serr != nil {
			return serr
		}
		if (i+1)%batch == 0 {
			epoch(trace)
		}
	}
	if st := eng.Stats(); st.Matched != uint64(2*n) {
		return fmt.Errorf("probe: intake matched %d of %d requests", st.Matched, 2*n)
	}
	out["engine.submit_us"] = Measure{us(median(submit)), "us"}
	out["dmms.codec_us"] = Measure{us(median(handler) - median(submit)), "us"}
	out["engine.epoch_self_ms"] = Measure{msf(median(epochSelf)), "ms"}
	return nil
}

// probeRound times Platform.PriceRoundFor over 64 open requests whose
// candidate sets were built beforehand: the arbiter's pricing round alone.
func probeRound(in *inputs, rec *Recorder, out map[string]Measure) error {
	p, _, err := in.platform()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var rounds []time.Duration
	for rep := 0; rep < 16 && (rep+1)*batch <= len(in.requests); rep++ {
		prebuilt := map[string]*dod.CandidateSet{}
		for _, r := range in.requests[rep*batch : (rep+1)*batch] {
			if _, err := p.SubmitRequest(r.want, r.fn); err != nil {
				return err
			}
			if _, ok := prebuilt[r.want.Key()]; !ok {
				prebuilt[r.want.Key()] = p.BuildCandidates(ctx, r.want)
			}
		}
		var matched int
		var rerr error
		rounds = append(rounds, rec.Time(fmt.Sprintf("probe-round-%d", rep), "arbiter.price_round", "", func() {
			res, err := p.PriceRoundFor(ctx, nil, prebuilt)
			if err != nil {
				rerr = err
				return
			}
			matched = len(res.Transactions)
		}))
		if rerr != nil {
			return rerr
		}
		if matched != batch {
			return fmt.Errorf("probe: pricing round matched %d of %d", matched, batch)
		}
	}
	out["arbiter.price_round_ms"] = Measure{msf(median(rounds)), "ms"}
	return nil
}

// probeBuild times Platform.BuildCandidates for every want group right after
// a catalog version bump (cold: beam search + materialize) and again without
// one (warm: a cache hit).
func probeBuild(in *inputs, rec *Recorder, out map[string]Measure) error {
	p, _, err := in.platform()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var cold, warm []time.Duration
	for rep := 0; rep < 4; rep++ {
		var bump dmms.DatasetReq
		if err := json.Unmarshal(workloads.FreshShare(in.bases[0].Seller, rep+1).Body, &bump); err != nil {
			return err
		}
		if err := shareBase(p, bump); err != nil {
			return err
		}
		for g, want := range in.groups {
			trace := fmt.Sprintf("probe-build-%d-%d", rep, g)
			var cs *dod.CandidateSet
			cold = append(cold, rec.Time(trace, "dod.build_cold", "", func() { cs = p.BuildCandidates(ctx, want) }))
			if cs.Err != "" {
				return fmt.Errorf("probe: build of %v failed: %s", want.Columns, cs.Err)
			}
			warm = append(warm, rec.Time(trace, "dod.build_warm", "", func() { p.BuildCandidates(ctx, want) }))
		}
	}
	out["dod.build_cold_ms"] = Measure{msf(median(cold)), "ms"}
	out["dod.build_warm_us"] = Measure{us(median(warm)), "us"}
	return nil
}

// probeJoin times a hash join of two bases on the shared key, once through
// the plain relation iterators and once carrying lineage.
func probeJoin(in *inputs, rec *Recorder, out map[string]Measure) error {
	l, r := in.bases[0].Relation, in.bases[1].Relation
	on := relation.JoinPair{Left: "a", Right: "a"}
	var plain, lineage []time.Duration
	for i := 0; i < 20; i++ {
		trace := fmt.Sprintf("probe-join-%d", i)
		var jerr error
		plain = append(plain, rec.Time(trace, "relation.join", "", func() {
			it, err := relation.NewHashJoin(relation.NewScan(l), relation.NewScan(r), l.Name, r.Name, on)
			if err == nil {
				_, err = relation.Materialize(it)
			}
			jerr = err
		}))
		if jerr != nil {
			return jerr
		}
		lineage = append(lineage, rec.Time(trace, "provenance.join", "", func() {
			_, jerr = provenance.HashJoin(provenance.FromSource(in.bases[0].ID, l), provenance.FromSource(in.bases[1].ID, r), on)
		}))
		if jerr != nil {
			return jerr
		}
	}
	out["relation.join_ms"] = Measure{msf(median(plain)), "ms"}
	out["provenance.join_ms"] = Measure{msf(median(lineage)), "ms"}
	return nil
}

// probeSplit times the design's revenue allocator at the number of sources
// the workload's mashups have.
func probeSplit(in *inputs, rec *Recorder, out map[string]Measure) error {
	p, _, err := in.platform()
	if err != nil {
		return err
	}
	var players []string
	for _, d := range in.bases[:min(max(in.sc.Spec.Sources, 1), len(in.bases))] {
		players = append(players, d.ID)
	}
	value := func(s map[string]bool) float64 { return float64(len(s)) / float64(len(players)) }
	var splits []time.Duration
	for i := 0; i < 512; i++ {
		splits = append(splits, rec.Time(fmt.Sprintf("probe-split-%d", i), "market.split", "", func() {
			market.AllocateWith(p.Design.Allocator, players, value, market.AllocContext{Seed: int64(i + 1)})
		}))
	}
	out["market.split_us"] = Measure{us(median(splits)), "us"}
	return nil
}

// probeFederation times the router's decision for a spanning want
// (Market.SubmitRequest) and a coordinator round over the queued wants, on an
// in-memory two-shard market. Single-arbiter workloads report 0.
func probeFederation(in *inputs, rec *Recorder, out map[string]Measure) error {
	out["federation.route_us"] = Measure{0, "us"}
	out["federation.coord_round_ms_per_want"] = Measure{0, "ms"}
	if in.sc.Spec.Shards <= 1 {
		return nil
	}
	m, err := federation.Open(federation.Config{Shards: in.sc.Spec.Shards, Platform: core.Options{Design: design}})
	if err != nil {
		return err
	}
	defer m.Stop()
	for _, b := range in.buyers {
		if _, err := m.SubmitRegister(b.Name, b.Funds); err != nil {
			return err
		}
	}
	for _, d := range in.bases {
		if _, err := m.SubmitShare(d.Seller, catalog.DatasetID(d.ID), d.Relation,
			wtp.DatasetMeta{Dataset: d.ID, HasProvenance: true}, license.Terms{Kind: license.Open}); err != nil {
			return err
		}
	}
	m.TriggerEpoch()
	const wants = 16
	var route, perWant []time.Duration
	for rep := 0; rep < 4 && (rep+1)*wants <= len(in.requests); rep++ {
		for i, r := range in.requests[rep*wants : (rep+1)*wants] {
			var serr error
			route = append(route, rec.Time(fmt.Sprintf("probe-route-%d-%d", rep, i), "federation.route", "", func() {
				_, serr = m.SubmitRequest(r.want, r.fn)
			}))
			if serr != nil {
				return serr
			}
		}
		settled := 0
		d := rec.Time(fmt.Sprintf("probe-coord-%d", rep), "federation.coord_round", "", func() { settled = m.CoordRound() })
		if settled != wants {
			return fmt.Errorf("probe: coordinator settled %d of %d wants", settled, wants)
		}
		perWant = append(perWant, d/wants)
	}
	out["federation.route_us"] = Measure{us(median(route)), "us"}
	out["federation.coord_round_ms_per_want"] = Measure{msf(median(perWant)), "ms"}
	return nil
}

// syncPolicy reads the workload's -fsync flag (the gateway's default
// otherwise).
func syncPolicy(spec workloads.Spec) wal.SyncPolicy {
	for i, f := range spec.Flags {
		if f == "-fsync" && i+1 < len(spec.Flags) {
			return wal.SyncPolicy(spec.Flags[i+1])
		}
	}
	return wal.SyncEpoch
}

// probeWAL replays the traced run's own log: wal.Boot on its directory gives
// the replay rate, and re-persisting its first records into a fresh log
// under the workload's fsync policy gives the cost of one Persist.
func probeWAL(in *inputs, walDir, scratch string, rec *Recorder, out map[string]Measure) error {
	if in.sc.Spec.Shards > 1 {
		walDir = filepath.Join(walDir, "shard-0")
	}
	var events int
	var berr error
	boot := rec.Time("probe-wal", "wal.boot", "", func() {
		_, eng, w, res, err := wal.Boot(core.Options{Design: design}, engine.Config{}, wal.Options{Dir: walDir})
		if err != nil {
			berr = err
			return
		}
		events = res.Recovered
		eng.Stop()
		berr = w.Close()
	})
	if berr != nil {
		return fmt.Errorf("probe: wal.Boot(%s): %w", walDir, berr)
	}
	if events == 0 {
		return fmt.Errorf("probe: wal.Boot(%s) recovered no events", walDir)
	}
	out["wal.replay_events_per_s"] = Measure{float64(events) / boot.Seconds(), "1/s"}

	evs, err := wal.Load(walDir)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(wal.Options{Dir: dir, Policy: syncPolicy(in.sc.Spec)})
	if err != nil {
		return err
	}
	var persists []time.Duration
	for i, ev := range evs[:min(len(evs), 2048)] {
		var perr error
		persists = append(persists, rec.Time(fmt.Sprintf("probe-persist-%d", i), "wal.persist", "", func() { perr = w.Persist(ev) }))
		if perr != nil {
			w.Close()
			return perr
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	out["wal.persist_us"] = Measure{us(median(persists)), "us"}
	return nil
}
