package dod

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
)

// This file is the versioned candidate store behind the pipelined arbiter:
// Build results are cached per want-key and stamped with the catalog version
// they are valid at. ShareDataset (through MutateCatalog) and
// RegisterTransform bump the version, and readers only ever compare a set's
// stamp with the current version — so a cached mashup built against
// yesterday's catalog is detected, and rebuilt, rather than served.
//
// A bump does not stale every set, though. Each mutation names the one dataset
// D it touches, and — still under the exclusive build/mutate lock — re-stamps
// to the new version every set that was valid at the old one and whose want D
// cannot influence (MutateCatalog). The footprint rule is the search's own
// predicate: buildLocked only seeds or grows a state with a dataset for which
// providersFor is non-empty, and the index only adds or drops join edges that
// touch the dataset being (re-)indexed, so a want is affected by a touch of D
// iff providersFor(D, want) is non-empty before or after the mutation. The one
// assumption is that every dataset in a beam state is a provider; if the
// search ever admits bridge-only datasets (joined through without supplying a
// wanted column) the footprint must widen to the join-reachable ones.
//
// Candidates are derived state: they are never logged or snapshotted, which is
// what lets the engine carry them across unrelated mutations without touching
// replay determinism: a valid cached set is byte-identical to what a fresh
// build of the same want at the current version would produce, because Build
// is deterministic and a function of the want's footprint datasets only.

// Key is the group key of a want: buyers with the same wanted columns share
// one auction, so they share one cache slot. The arbiter groups requests by
// the same key.
func (w Want) Key() string {
	cols := append([]string(nil), w.Columns...)
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

// fingerprint captures the exact build input: unlike Key it is sensitive to
// column order (projection order shapes the mashup schema), aliases and the
// search knobs, so a cached set is only reused for a want that would have
// built identically.
func (w Want) fingerprint() string {
	var b strings.Builder
	b.WriteString(strings.Join(w.Columns, ","))
	aliasKeys := make([]string, 0, len(w.Aliases))
	for k := range w.Aliases {
		aliasKeys = append(aliasKeys, k)
	}
	sort.Strings(aliasKeys)
	for _, k := range aliasKeys {
		fmt.Fprintf(&b, "|%s=%s", k, strings.Join(w.Aliases[k], "/"))
	}
	fmt.Fprintf(&b, "|%d|%d|%g|%d", w.MaxDatasets, w.MaxCandidates, w.MinJoinScore, w.MinRows)
	return b.String()
}

// CandidateSet is one cached build outcome: the ranked candidates (or the
// build failure) for one want, stamped with the catalog version they are
// valid at. A set whose Version no longer matches the engine's catalog
// version is stale and must not be priced.
type CandidateSet struct {
	// Key is the want's group key (sorted wanted columns).
	Key string
	// Want is the exact want the set was built from.
	Want Want
	// Version is the catalog version at build start, moved forward by every
	// later mutation that could not have changed the build. Atomic: pricing
	// reads it without the engine's locks while a mutation re-stamps it.
	Version atomic.Uint64
	// Candidates are the ranked mashups; empty when the build failed.
	Candidates []Candidate
	// Err carries the build failure, cached like a positive result so a
	// hopeless want does not re-run the beam search every round — a catalog
	// change that touches its footprint invalidates it like everything else.
	Err string
	// BuildMillis is how long the build took (0 for cache hits).
	BuildMillis float64

	fp      string
	lastUse uint64 // engine.useSeq tick of the last hit or insert (LRU)
	// ctxErr is set when the build was abandoned to a context deadline or
	// cancellation rather than genuinely failing. Such sets are priced as
	// failed for this round but never cached: the next round must retry,
	// unlike an ordinary cached build failure.
	ctxErr error
}

// Abandoned returns the context error a deadline-exceeded or cancelled build
// carries (nil for real outcomes, including ordinary build failures).
func (cs *CandidateSet) Abandoned() error {
	if cs == nil {
		return nil
	}
	return cs.ctxErr
}

// CacheStats is a point-in-time snapshot of the candidate-store counters.
// All counters are in-memory observability only — never logged, snapshotted
// or replayed.
type CacheStats struct {
	// Hits counts version-valid cache reuses.
	Hits uint64 `json:"hits"`
	// Stale counts lookups that found an entry invalidated by a catalog
	// change that touched the want's footprint (the entry was rebuilt).
	Stale uint64 `json:"stale"`
	// Retained counts sets carried across a catalog version bump because the
	// touched dataset could not influence their want.
	Retained uint64 `json:"retained"`
	// Misses counts lookups with no reusable entry.
	Misses uint64 `json:"misses"`
	// Builds counts beam searches actually run.
	Builds uint64 `json:"builds"`
	// BuildMillis is the cumulative wall-clock time spent in builds.
	BuildMillis float64 `json:"build_millis"`
	// Entries is the current cache population.
	Entries int `json:"entries"`
	// Version is the current catalog version.
	Version uint64 `json:"version"`
	// Evictions counts entries dropped to enforce CacheConfig.MaxEntries.
	Evictions uint64 `json:"evictions"`
	// Panics counts builds that panicked and were converted to failed
	// candidate sets instead of crashing the process.
	Panics uint64 `json:"panics"`
	// DeadlineExceeded counts build requests abandoned because they (or the
	// build they were waiting on) outran the configured build deadline.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// Cancelled counts build requests abandoned to an external cancellation
	// (the caller's context ending before the build did).
	Cancelled uint64 `json:"cancelled"`
	// SubJoinHits counts join prefixes reused from the per-build sub-join
	// memo during candidate materialization instead of being recomputed.
	SubJoinHits uint64 `json:"subjoin_hits"`
}

// CacheConfig bounds the candidate store.
type CacheConfig struct {
	// MaxEntries caps the number of cached candidate sets; 0 means
	// unlimited. When the cap is exceeded, stale entries (wrong catalog
	// version) are evicted first, then — among fresh entries — the
	// cheapest-to-rebuild (lowest recorded build time, ties broken by
	// least recent use). An expensive mashup is worth keeping warm even
	// when a cheap one was touched more recently.
	MaxEntries int
}

// SetBuildDeadline bounds every build request: a BuildCached call whose build
// outruns d resolves to a failed CandidateSet carrying the context error and
// frees the caller, rather than wedging it. Zero (the default) disables
// the bound. Safe for concurrent use.
func (e *Engine) SetBuildDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.deadlineNanos.Store(int64(d))
}

// BuildDeadline returns the configured per-build deadline (0 = none).
func (e *Engine) BuildDeadline() time.Duration {
	return time.Duration(e.deadlineNanos.Load())
}

// SetCacheConfig applies the bound and immediately enforces it.
func (e *Engine) SetCacheConfig(cfg CacheConfig) {
	e.cacheMu.Lock()
	e.cacheMax = cfg.MaxEntries
	e.evictLocked()
	e.cacheMu.Unlock()
}

// SetBuildHook installs fn to observe each completed build's wall-clock
// seconds (nil to remove). Telemetry only; never affects build results.
func (e *Engine) SetBuildHook(fn func(seconds float64)) {
	if fn == nil {
		e.buildHook.Store(nil)
		return
	}
	e.buildHook.Store(&fn)
}

// evictLocked enforces cacheMax with a cost-weighted policy: stale entries go
// first (they would be rebuilt anyway; least recently used among them), then
// among fresh entries the cheapest-to-rebuild — lowest recorded BuildMillis,
// ties broken by lowest lastUse. Caller holds cacheMu.
func (e *Engine) evictLocked() {
	if e.cacheMax <= 0 {
		return
	}
	ver := e.version.Load()
	// evictBefore reports whether a is a better eviction victim than b.
	evictBefore := func(a, b *CandidateSet) bool {
		aStale, bStale := a.Version.Load() != ver, b.Version.Load() != ver
		if aStale != bStale {
			return aStale
		}
		if aStale {
			return a.lastUse < b.lastUse
		}
		if a.BuildMillis != b.BuildMillis {
			return a.BuildMillis < b.BuildMillis
		}
		return a.lastUse < b.lastUse
	}
	for len(e.cache) > e.cacheMax {
		victimKey := ""
		var victim *CandidateSet
		for k, cs := range e.cache {
			if victim == nil || evictBefore(cs, victim) {
				victimKey, victim = k, cs
			}
		}
		if victim == nil {
			return
		}
		delete(e.cache, victimKey)
		e.evictions.Add(1)
	}
}

// CatalogVersion returns the current catalog version. Every mutation that
// can change what some Build would produce — dataset shares, updates,
// transform registrations — bumps it.
func (e *Engine) CatalogVersion() uint64 { return e.version.Load() }

// MutateCatalog runs a mutation of one dataset — its catalog content, its
// index entry, its transforms — exclusively against in-flight builds. The
// arbiter routes its index writes (ShareDataset) through here
// so concurrent builds never observe a half-applied mutation. The
// closure reports whether it actually applied: only then is the catalog
// version bumped — a rejected update must not stale anything.
//
// A bump carries forward every cached set that was valid at the old version
// and for which the touched dataset provides nothing both before and after
// the mutation — the sets a fresh Build at the new version would reproduce
// exactly. Sets already stale are never promoted, whatever their stamp;
// affected sets keep their old stamp and rebuild at the next lookup. Builds
// insert under the shared lock, so none can slip in between the two scans.
func (e *Engine) MutateCatalog(touched catalog.DatasetID, mutate func() bool) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, old := string(touched), e.version.Load()
	var keep []*CandidateSet
	e.cacheMu.Lock()
	for _, cs := range e.cache {
		if cs.Version.Load() == old && len(e.providersFor(ds, cs.Want)) == 0 {
			keep = append(keep, cs)
		}
	}
	e.cacheMu.Unlock()
	if !mutate() {
		return old
	}
	ver := e.version.Add(1)
	for _, cs := range keep {
		if len(e.providersFor(ds, cs.Want)) == 0 {
			cs.Version.Store(ver)
			e.retained.Add(1)
		}
	}
	return ver
}

// Valid reports whether a candidate set can be priced for the given want
// right now: it must have been built from an identical want and stamped with
// the current catalog version. The price-time check is what keeps a share
// racing a prebuild from settling against a pre-share mashup.
func (e *Engine) Valid(cs *CandidateSet, want Want) bool {
	return cs != nil && cs.fp == want.fingerprint() && cs.Version.Load() == e.version.Load()
}

// CacheStats snapshots the candidate-store counters.
func (e *Engine) CacheStats() CacheStats {
	e.cacheMu.Lock()
	entries := len(e.cache)
	e.cacheMu.Unlock()
	return CacheStats{
		Hits:             e.cacheHits.Load(),
		Stale:            e.cacheStale.Load(),
		Retained:         e.retained.Load(),
		Misses:           e.cacheMisses.Load(),
		Builds:           e.builds.Load(),
		BuildMillis:      float64(e.buildNanos.Load()) / 1e6,
		Entries:          entries,
		Version:          e.version.Load(),
		Evictions:        e.evictions.Load(),
		Panics:           e.panics.Load(),
		DeadlineExceeded: e.deadlineHits.Load(),
		Cancelled:        e.cancelled.Load(),
		SubJoinHits:      e.subjoinHits.Load(),
	}
}

// inflightBuild is one in-progress build other callers can wait on instead
// of duplicating the beam search (per-want singleflight).
type inflightBuild struct {
	ver  uint64
	done chan struct{}
	cs   *CandidateSet // set before done closes
}

// BuildCached is the cache-aware, supervised Build: a version-valid entry for
// the same want is returned as-is (hit); an entry invalidated by a catalog
// change to its footprint (stale) or absent (miss) triggers a build, whose
// outcome — success or failure — is stored under the want's key. Safe for
// concurrent use; builds for distinct wants run in parallel (they hold the
// catalog read-lock, so a MutateCatalog waits for them and they never see
// partial mutations), while concurrent callers for the same want at the same
// version share one build: a retry racing a still-running search for the
// same want costs one beam search, not two.
//
// ctx bounds the request (nil is treated as context.Background()); on top of
// it, a deadline configured via SetBuildDeadline is applied per call. When the
// context ends before the build does, BuildCached returns a failed
// CandidateSet carrying the context error — stamped with the current
// fingerprint and version so the pricing stage accepts it as a (failed) build
// for this round — and the caller is freed. The abandoned search keeps running
// on its own goroutine until it notices the cancellation (the beam search
// checks at node-expansion granularity; an uninterruptible user transform can
// pin that goroutine, and with it the catalog read-lock, but never an epoch
// or Engine.Stop). Abandoned results are never cached: the next round
// retries instead of trusting a timeout.
func (e *Engine) BuildCached(ctx context.Context, want Want) *CandidateSet {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := e.BuildDeadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if ctx.Done() == nil {
		// Unbounded and uncancellable: run inline, no supervisor needed.
		return e.buildCachedSync(ctx, want)
	}
	ch := make(chan *CandidateSet, 1)
	go func() { ch <- e.buildCachedSync(ctx, want) }()
	select {
	case cs := <-ch:
		if cs.ctxErr != nil {
			e.countAbandoned(cs.ctxErr)
		}
		return cs
	case <-ctx.Done():
		// The build has not noticed yet (it may be inside user code). Leave
		// it to finish on its own goroutine — it resolves its inflight entry
		// itself and its result is discarded (ch is buffered) — and hand the
		// caller a failed set for this round.
		err := ctx.Err()
		e.countAbandoned(err)
		return e.abandonedSet(want, err)
	}
}

// countAbandoned attributes one abandoned build request to the deadline or
// cancellation counter. Called exactly once per abandoned BuildCached call.
func (e *Engine) countAbandoned(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlineHits.Add(1)
	} else {
		e.cancelled.Add(1)
	}
}

// abandonedSet is the failed CandidateSet an abandoned build request resolves
// to. It is stamped with the want's fingerprint and the current catalog
// version so the price-time Valid check passes and the group is skipped like
// any failed build, instead of being rebuilt inline mid-round.
func (e *Engine) abandonedSet(want Want, err error) *CandidateSet {
	cs := &CandidateSet{
		Key:    want.Key(),
		Want:   want,
		Err:    fmt.Sprintf("dod: build abandoned: %v", err),
		fp:     want.fingerprint(),
		ctxErr: err,
	}
	cs.Version.Store(e.version.Load())
	return cs
}

// buildCachedSync is the cache lookup + singleflight + build path. It honors
// ctx cooperatively (the beam search aborts between node expansions and
// joins) but never abandons bookkeeping: whatever happens, the inflight entry
// is resolved and the catalog read-lock released.
func (e *Engine) buildCachedSync(ctx context.Context, want Want) *CandidateSet {
	key, fp := want.Key(), want.fingerprint()
	flKey := key + "\x00" + fp

	e.mu.RLock()
	ver := e.version.Load() // stable while the read-lock pins out writers
	e.cacheMu.Lock()
	if cs, ok := e.cache[key]; ok && cs.fp == fp && cs.Version.Load() == ver {
		cs.lastUse = e.useSeq.Add(1)
		e.cacheMu.Unlock()
		e.mu.RUnlock()
		e.cacheHits.Add(1)
		return cs
	}
	if fl, ok := e.inflight[flKey]; ok && fl.ver == ver {
		// Someone is already building this exact want at this version: wait
		// for their result instead of burning a second search (and counting
		// phantom misses). The wait holds no locks and respects ctx — a
		// deadline-bounded caller must not inherit a wedged builder's fate.
		e.cacheMu.Unlock()
		e.mu.RUnlock()
		select {
		case <-fl.done:
			e.cacheHits.Add(1)
			return fl.cs
		case <-ctx.Done():
			return e.abandonedSet(want, ctx.Err())
		}
	}
	if cs, ok := e.cache[key]; ok && cs.fp == fp {
		e.cacheStale.Add(1)
	} else {
		e.cacheMisses.Add(1)
	}
	fl := &inflightBuild{ver: ver, done: make(chan struct{})}
	e.inflight[flKey] = fl
	e.cacheMu.Unlock()

	start := time.Now()
	cands, err := e.buildRecover(ctx, want)
	took := time.Since(start)

	cs := &CandidateSet{Key: key, Want: want, Candidates: cands, BuildMillis: float64(took.Nanoseconds()) / 1e6, fp: fp}
	cs.Version.Store(ver)
	if err != nil {
		cs.Err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			cs.ctxErr = err
		}
	}
	e.cacheMu.Lock()
	cs.lastUse = e.useSeq.Add(1)
	// The insert happens before the catalog read-lock is released, so ver is
	// still the current version and the next mutation sees this set — and can
	// carry it forward — instead of racing it. An abandoned build is never
	// cached at all: unlike a genuine failure, it says nothing about the
	// catalog, and the next round must retry.
	if cs.ctxErr == nil {
		e.cache[key] = cs
		e.evictLocked()
	}
	if e.inflight[flKey] == fl {
		delete(e.inflight, flKey)
	}
	e.cacheMu.Unlock()
	e.mu.RUnlock()

	e.builds.Add(1)
	e.buildNanos.Add(took.Nanoseconds())
	if hook := e.buildHook.Load(); hook != nil {
		(*hook)(took.Seconds())
	}
	fl.cs = cs // happens-before the close; waiters read after <-done
	close(fl.done)
	return cs
}

// buildRecover runs the beam search, converting a panic (e.g. from a buggy
// user-registered transform materializing a derived column) into a build
// error. The defer runs before buildCachedSync releases the catalog read-lock
// and before the inflight entry is resolved, so a panicking build can never
// wedge MutateCatalog or strand singleflight waiters.
func (e *Engine) buildRecover(ctx context.Context, want Want) (cands []Candidate, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			cands, err = nil, fmt.Errorf("dod: build panicked: %v", r)
		}
	}()
	return e.buildLocked(ctx, want)
}
