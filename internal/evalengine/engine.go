// Package evalengine is the single evaluation path of the framework: every
// layer that needs "run workload w on configuration c for n instructions"
// — the annealing chains, the cross-configuration matrix, the regression
// sampler — asks the engine instead of calling sim.Run directly.
//
// The engine exploits the determinism of the stack. A simulation result is
// a pure function of (configuration, workload profile, instruction budget,
// technology, objective), so results are memoized in a concurrency-safe,
// sharded, LRU-bounded cache keyed by a digest of that tuple (see
// key.go); concurrent requests for the same point are deduplicated
// singleflight-style, so two annealing chains asking for one design point
// trigger one simulation. Each workload's synthetic instruction stream is
// likewise a pure function of its profile, so it is materialized once and
// replayed across evaluations (see trace.go). Hit/miss/dedup counters make
// the saved work observable.
package evalengine

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/workload"
)

// Eval is one memoized evaluation: the raw simulation result plus the
// objective score it was requested under.
type Eval struct {
	Result sim.Result
	Score  float64
}

// Options sizes an engine. The zero value selects defaults.
type Options struct {
	// CacheEntries bounds the number of memoized evaluations across all
	// shards (default 65536).
	CacheEntries int
	// Shards is the number of cache shards (default 16). Tests use 1 to
	// make the LRU bound exact.
	Shards int
	// Backend, when non-nil, is a second cache tier behind the in-memory
	// LRU (typically internal/evalstore's content-addressed disk store).
	// Memory-tier misses read through it before simulating, and fresh
	// results are written behind to it, so evaluations survive process
	// restarts and are shared across sessions. The engine owns the
	// backend's lifecycle from here on: Engine.Close flushes and closes it.
	Backend CacheBackend
}

// CacheBackend is a second, slower cache tier composed behind the engine's
// sharded in-memory LRU: the memory tier absorbs the hot working set and
// singleflight dedup, the backend makes results durable. Implementations
// must be safe for concurrent use; pool workers call Get and Put
// concurrently. A backend is errorless by design at the call sites — an
// implementation that fails internally must report a miss (Get) or count
// the error (Put) rather than failing the evaluation; Flush and Close
// surface the sticky error.
type CacheBackend interface {
	// Get returns the evaluation stored under key, if any. Corrupt or
	// unreadable entries are a miss, never an error.
	Get(key Key) (Eval, bool)
	// Put stores a successful evaluation under key. Implementations may
	// write asynchronously (write-behind); Flush forces completion.
	Put(key Key, val Eval)
	// Flush blocks until every accepted Put is durable.
	Flush() error
	// Close flushes and releases the backend.
	Close() error
	// Stats snapshots the backend's counters.
	Stats() BackendStats
}

// BackendStats is a snapshot of a cache backend's counters, surfaced
// through the engine's Stats so one -evalstats line covers the memory
// tier and the backend behind it. Each backend populates only the fields
// it owns: the disk store the entry/write family, internal/evalremote's
// client the Remote* family.
type BackendStats struct {
	// Entries is the number of distinct records currently stored; Bytes
	// the store's size on disk (for the disk tier, the size of its pack
	// this store knows, overwritten and corrupt entries included).
	Entries, Bytes uint64
	// Writes counts records written (durable once Flush or Close
	// returns); WriteErrors the Puts that failed (the entry is simply not
	// persisted — never an eval failure).
	Writes, WriteErrors uint64
	// Quarantined counts corrupt or torn records skipped (and served as
	// misses) instead of failing reads; their bytes stay on disk.
	Quarantined uint64
	// Remote-tier counters, all zero without one. RemoteHits/RemoteMisses
	// classify remote lookups; RemoteErrors is the subset of misses caused
	// by transport, timeout or decode failures (every failure is a miss,
	// never an error into the eval path). RemoteWrites counts records
	// delivered to a peer; RemoteDropped the writes abandoned to queue
	// overflow or peer failure — dropping costs nothing locally, the
	// record is already held by the faster tiers.
	RemoteHits, RemoteMisses, RemoteErrors, RemoteWrites, RemoteDropped uint64
}

const (
	defaultCacheEntries = 1 << 16
	defaultShards       = 16
	// traceCapInstr bounds the total instructions the trace store
	// materializes (~256MB worst case); larger single requests bypass
	// trace reuse.
	traceCapInstr = 8 << 20
)

// Engine memoizes simulation results and owns the shared trace store and
// worker pool. Safe for concurrent use.
type Engine struct {
	shards []cacheShard
	traces *traceStore
	pool   *Pool

	// multis pools *sim.MultiRunner scratch state — per-lane pipeline
	// arenas, predictor tables and cache arrays plus the shared delivery
	// block — across simulations, so steady-state evaluation allocates
	// nothing in the kernel.
	multis sync.Pool

	// backend is the optional persistent tier (nil when the engine is
	// memory-only). Held behind an atomic pointer so Close can detach it
	// race-free while evaluations are in flight: a detached engine keeps
	// serving from the memory tier.
	backend atomic.Pointer[backendRef]

	requests atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	deduped  atomic.Uint64
	evicted  atomic.Uint64

	// Disk-tier accounting: memory-tier misses served by the backend
	// (diskHits — the entry is promoted into the memory LRU on the way
	// through), and memory-tier misses the backend also missed (diskMisses
	// — the request went on to simulate).
	diskHits   atomic.Uint64
	diskMisses atomic.Uint64

	// Lockstep accounting: groups run (a lone miss is a group of one),
	// lanes they carried, and failed groups retried member by member.
	lockstepGroups  atomic.Uint64
	lockstepLanes   atomic.Uint64
	scalarFallbacks atomic.Uint64

	// Telemetry hooks, both nil by default: latency and group-size
	// histograms fed by every lockstep group. Loaded once per group; the
	// nil fast path costs an atomic load and zero allocations.
	simHist   atomic.Pointer[telemetry.Histogram]
	groupHist atomic.Pointer[telemetry.Histogram]

	// Introspection: the armed interval-sampling period, nil by default
	// (kernel runs with accounting off, the zero-alloc fast path). When
	// armed, every miss runs with CPI-stack accounting — and, with a
	// positive period, interval sampling — and its stack rides its result.
	intro atomic.Pointer[int]
}

// backendRef boxes the CacheBackend interface value so it can live in an
// atomic.Pointer.
type backendRef struct{ be CacheBackend }

// tier returns the persistent backend, or nil when the engine is
// memory-only (none configured, or Close already detached it).
func (e *Engine) tier() CacheBackend {
	if ref := e.backend.Load(); ref != nil {
		return ref.be
	}
	return nil
}

// Flush blocks until every result handed to the persistent tier is
// durable. A no-op on a memory-only engine.
func (e *Engine) Flush() error {
	if be := e.tier(); be != nil {
		return be.Flush()
	}
	return nil
}

// Close detaches and closes the persistent tier, flushing write-behind
// entries first. The engine itself stays usable — it simply becomes
// memory-only — so Close is safe on the shutdown path while late
// evaluations drain. Idempotent; a memory-only engine returns nil.
func (e *Engine) Close() error {
	ref := e.backend.Swap(nil)
	if ref == nil {
		return nil
	}
	return ref.be.Close()
}

// EnableIntrospection arms CPI-stack accounting for every subsequent
// uncached simulation. With a positive interval, simulations additionally
// sample a cumulative snapshot every interval committed instructions, and
// a traced request's span carries each miss's series on its member; 0
// collects CPI stacks only. Entries memoized before arming keep their
// (stack-free) results — introspection only observes fresh simulations.
func (e *Engine) EnableIntrospection(interval int) {
	e.intro.Store(&interval)
}

// DisableIntrospection returns subsequent simulations to the accounting-off
// fast path.
func (e *Engine) DisableIntrospection() { e.intro.Store(nil) }

// EnableTelemetry registers the engine's counters, the cache-occupancy
// gauges and the simulation-latency histogram with a metrics registry.
// Counters are exported as scrape-time functions over the engine's existing
// atomics, so enabling telemetry adds no hot-path cost; the histogram adds
// one time.Now pair per uncached simulation. Safe to call more than once
// with the same registry.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry) {
	reg.Func("xpscalar_eval_requests_total", "evaluation requests", "counter",
		func() float64 { return float64(e.requests.Load()) })
	reg.Func("xpscalar_eval_cache_hits_total", "requests served from completed cache entries", "counter",
		func() float64 { return float64(e.hits.Load()) })
	reg.Func("xpscalar_eval_deduped_total", "requests that joined an in-flight simulation", "counter",
		func() float64 { return float64(e.deduped.Load()) })
	reg.Func("xpscalar_eval_misses_total", "requests that ran a simulation", "counter",
		func() float64 { return float64(e.misses.Load()) })
	reg.Func("xpscalar_eval_cache_evictions_total", "memo entries dropped by the LRU bound", "counter",
		func() float64 { return float64(e.evicted.Load()) })
	reg.Func("xpscalar_eval_disk_hits_total", "memory-tier misses served from the persistent tier", "counter",
		func() float64 { return float64(e.diskHits.Load()) })
	reg.Func("xpscalar_eval_disk_misses_total", "memory-tier misses the persistent tier also missed", "counter",
		func() float64 { return float64(e.diskMisses.Load()) })
	reg.Func("xpscalar_eval_disk_entries", "evaluations held by the persistent tier", "gauge",
		func() float64 {
			if be := e.tier(); be != nil {
				return float64(be.Stats().Entries)
			}
			return 0
		})
	reg.Func("xpscalar_eval_disk_writes_total", "evaluations written by the persistent tier (durable once flushed)", "counter",
		func() float64 {
			if be := e.tier(); be != nil {
				return float64(be.Stats().Writes)
			}
			return 0
		})
	reg.Func("xpscalar_eval_disk_write_errors_total", "write-behind failures in the persistent tier", "counter",
		func() float64 {
			if be := e.tier(); be != nil {
				return float64(be.Stats().WriteErrors)
			}
			return 0
		})
	reg.Func("xpscalar_eval_disk_quarantined_total", "corrupt or torn persistent-tier records skipped as misses", "counter",
		func() float64 {
			if be := e.tier(); be != nil {
				return float64(be.Stats().Quarantined)
			}
			return 0
		})
	reg.Func("xpscalar_eval_disk_entries_bytes", "bytes of the persistent tier's store, overwritten and corrupt entries included", "gauge",
		func() float64 {
			if be := e.tier(); be != nil {
				return float64(be.Stats().Bytes)
			}
			return 0
		})
	reg.Func("xpscalar_eval_cache_entries", "memoized evaluations currently cached", "gauge",
		func() float64 { return float64(e.CacheEntries()) })
	reg.Func("xpscalar_trace_instr_built_total", "instructions materialized by the trace store", "counter",
		func() float64 { return float64(e.traces.built.Load()) })
	reg.Func("xpscalar_trace_replays_total", "evaluations served from cached instruction streams", "counter",
		func() float64 { return float64(e.traces.replays.Load()) })
	reg.Func("xpscalar_trace_bypasses_total", "requests too large for the trace store", "counter",
		func() float64 { return float64(e.traces.bypasses.Load()) })
	reg.Func("xpscalar_trace_evictions_total", "profile streams evicted from the trace store", "counter",
		func() float64 { return float64(e.traces.evictions.Load()) })
	reg.Func("xpscalar_pool_maps_total", "Pool.Map fan-out calls", "counter",
		func() float64 { return float64(e.pool.maps.Load()) })
	reg.Func("xpscalar_pool_jobs_total", "jobs executed by the worker pool", "counter",
		func() float64 { return float64(e.pool.jobs.Load()) })
	reg.Func("xpscalar_pool_active_jobs", "jobs currently executing on the worker pool", "gauge",
		func() float64 { return float64(e.pool.active.Load()) })
	reg.Func("xpscalar_lockstep_groups_total", "lockstep simulation groups run, groups of one included", "counter",
		func() float64 { return float64(e.lockstepGroups.Load()) })
	reg.Func("xpscalar_lockstep_lanes_total", "simulations carried by lockstep groups", "counter",
		func() float64 { return float64(e.lockstepLanes.Load()) })
	reg.Func("xpscalar_lockstep_scalar_fallbacks_total", "failed lockstep groups retried member by member as groups of one", "counter",
		func() float64 { return float64(e.scalarFallbacks.Load()) })
	// Bounds from 100µs to ~1.6s: short-budget evaluations land in the low
	// buckets, refinement-budget ones further up.
	e.simHist.Store(reg.Histogram("xpscalar_sim_seconds",
		"wall time of uncached simulations", telemetry.ExpBuckets(1e-4, 2, 15)))
	// Powers of two from 1 to 128 lanes: annealing neighborhoods and matrix
	// rows land mid-range; lone misses (the classic annealing step) land at
	// 1, since every simulation rides a group.
	e.groupHist.Store(reg.Histogram("xpscalar_lockstep_group_size",
		"lanes per lockstep simulation group, groups of one included", telemetry.ExpBuckets(1, 2, 8)))
}

// New constructs an engine with the given options.
func New(o Options) *Engine {
	if o.CacheEntries <= 0 {
		o.CacheEntries = defaultCacheEntries
	}
	if o.Shards <= 0 {
		o.Shards = defaultShards
	}
	if o.Shards > o.CacheEntries {
		o.Shards = o.CacheEntries
	}
	e := &Engine{
		shards: make([]cacheShard, o.Shards),
		traces: newTraceStore(traceCapInstr),
		pool:   NewPool(0), // GOMAXPROCS workers
	}
	if o.Backend != nil {
		e.backend.Store(&backendRef{be: o.Backend})
	}
	e.multis.New = func() any { return new(sim.MultiRunner) }
	per := o.CacheEntries / o.Shards
	if per < 1 {
		per = 1
	}
	for i := range e.shards {
		e.shards[i].cap = per
		e.shards[i].entries = make(map[Key]*list.Element)
		e.shards[i].order = list.New()
	}
	return e
}

// Pool returns the engine's worker pool, the fan-out primitive every
// simulation caller shares.
func (e *Engine) Pool() *Pool { return e.pool }

// cacheShard is one lock domain of the memo cache: an LRU-bounded map from
// request key to entry.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element // values are *memoEntry
	order   *list.List            // front = most recently used
}

// memoEntry is one memoized (or in-flight) evaluation. ready is closed
// when val/err are final; waiters hold the entry pointer directly, so LRU
// eviction of an in-flight entry cannot strand them.
type memoEntry struct {
	key   Key
	ready chan struct{}
	val   Eval
	err   error
}

func (e *Engine) shard(key Key) *cacheShard {
	return &e.shards[key.shardIndex(len(e.shards))]
}

// claim looks up or inserts the memo entry for key and classifies the
// request: "hit" (a completed entry existed), "dedup" (an in-flight entry
// existed; wait on its ready channel), or "miss" (the entry was inserted
// here — the caller owns computing val/err and closing ready, and must do
// so on every path or waiters hang forever).
func (e *Engine) claim(key Key) (*memoEntry, string) {
	sh := e.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		me := el.Value.(*memoEntry)
		sh.mu.Unlock()
		select {
		case <-me.ready:
			return me, "hit"
		default:
			return me, "dedup"
		}
	}
	me := &memoEntry{key: key, ready: make(chan struct{})}
	e.insertLocked(sh, me)
	sh.mu.Unlock()
	return me, "miss"
}

// insertLocked adds a new entry to the shard (whose mutex the caller
// holds) and applies the LRU bound.
func (e *Engine) insertLocked(sh *cacheShard, me *memoEntry) {
	sh.entries[me.key] = sh.order.PushFront(me)
	for sh.order.Len() > sh.cap {
		back := sh.order.Back()
		delete(sh.entries, back.Value.(*memoEntry).key)
		sh.order.Remove(back)
		e.evicted.Add(1)
	}
}

// Peek returns the completed, successful memo entry for key, if the
// memory tier holds one. Unlike Evaluate it never inserts an entry,
// never consults the persistent tier, and never counts toward the
// request statistics — it is the read-only face a cache-serving peer
// (internal/evalremote's server) exposes over the engine's hot tier.
func (e *Engine) Peek(key Key) (Eval, bool) {
	sh := e.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return Eval{}, false
	}
	me := el.Value.(*memoEntry)
	select {
	case <-me.ready:
	default:
		// In flight: its owner will resolve it; a peer asking now simply
		// misses.
		return Eval{}, false
	}
	if me.err != nil {
		return Eval{}, false
	}
	sh.order.MoveToFront(el)
	return me.val, true
}

// Memoize installs an externally computed evaluation into the memory
// tier as a completed entry — the write face a cache-serving peer
// exposes, so a PUT from the fleet warms this process's LRU. An existing
// entry (completed or in flight) is left untouched: the engine's own
// computation of a design point is always at least as authoritative as a
// peer's copy of the same pure function. The persistent tier is
// deliberately not written here; callers that own a local store compose
// that themselves (and a remote tier must never re-fan a peer's PUT back
// into the fleet).
func (e *Engine) Memoize(key Key, val Eval) {
	sh := e.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return
	}
	me := &memoEntry{key: key, ready: make(chan struct{}), val: val}
	close(me.ready)
	e.insertLocked(sh, me)
}

// Evaluate returns the simulation result and objective score for the
// request, serving it from the memo cache when the point has been
// evaluated before and joining an in-flight computation when another
// goroutine is already simulating it. It is EvaluateBatch's body with a
// one-member batch: a miss runs as a lockstep group of one. The request
// emits one span whose kind says how it was served (eval.hit, eval.dedup,
// eval.disk or eval.miss) and which ends with the member's result, and a
// failure returns the member's own error unwrapped — an invalid
// configuration's exact Validate error.
//
// Cancellation semantics: ctx is checked once on entry (before a memo
// entry is inserted) and while waiting on an in-flight computation owned
// by another goroutine. A context error is only ever returned to the
// caller — it is never stored in the cache, so a cancelled run can never
// poison the memoized result of a design point. The simulation itself,
// once started, runs to completion: its result is a pure function of the
// request and stays valid for every future caller.
func (e *Engine) Evaluate(ctx context.Context, cfg sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) (Eval, error) {
	var dst [1]Eval
	_, err := e.evaluate(ctx, dst[:], []sim.Config{cfg}, p, budget, t, obj, false)
	return dst[0], err
}

// CacheEntries reports how many memoized evaluations the cache currently
// holds across all shards.
func (e *Engine) CacheEntries() int {
	total := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		total += sh.order.Len()
		sh.mu.Unlock()
	}
	return total
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Requests counts Evaluate calls; Hits were served from completed
	// cache entries, Deduped joined an in-flight simulation, Misses ran
	// one. Requests = Hits + Deduped + Misses.
	Requests, Hits, Deduped, Misses uint64
	// DiskHits counts memory-tier misses served by the persistent tier
	// (each promoted into the memory LRU on the way through); DiskMisses
	// the memory-tier misses the persistent tier also missed. Both stay
	// zero on a memory-only engine. With a persistent tier,
	// Requests = Hits + Deduped + DiskHits + Misses.
	DiskHits, DiskMisses uint64
	// Disk snapshots the persistent tier's own counters (entries held,
	// write-behind completions and failures, quarantined records).
	Disk BackendStats
	// Evictions counts memo entries dropped by the LRU bound;
	// CacheEntries is the current occupancy. Together they make LRU
	// pressure visible: evictions climbing while entries sit at the bound
	// means the working set of design points no longer fits.
	Evictions    uint64
	CacheEntries uint64
	// TraceInstr is the number of instructions materialized by the trace
	// store; TraceReplays the evaluations served from cached streams;
	// TraceBypasses the requests too large to cache; TraceEvictions the
	// profile streams evicted.
	TraceInstr, TraceReplays, TraceBypasses, TraceEvictions uint64
	// LockstepGroups counts the lockstep simulation groups run — every
	// simulation rides one, a lone miss as a group of one; LockstepLanes
	// the simulations those groups carried (Misses − LockstepLanes is the
	// invalid configurations and failed runs); ScalarFallbacks the failed
	// groups of two or more that were retried member by member as groups
	// of one.
	LockstepGroups, LockstepLanes, ScalarFallbacks uint64
}

// Saved is the number of simulations avoided: requests answered without
// running the pipeline from cycle zero (memory hits, in-flight joins, and
// persistent-tier hits alike).
func (s Stats) Saved() uint64 { return s.Hits + s.Deduped + s.DiskHits }

// HitRate is the fraction of requests served without a fresh simulation.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Saved()) / float64(s.Requests)
}

func (s Stats) String() string {
	base := fmt.Sprintf("evals=%d cached=%d dedup=%d sims=%d (%.1f%% saved) evictions=%d entries=%d trace: %d instr built, %d replays, %d bypasses; lockstep: %d groups, %d lanes, %d fallbacks",
		s.Requests, s.Hits, s.Deduped, s.Misses, 100*s.HitRate(), s.Evictions, s.CacheEntries,
		s.TraceInstr, s.TraceReplays, s.TraceBypasses,
		s.LockstepGroups, s.LockstepLanes, s.ScalarFallbacks)
	if s.DiskHits == 0 && s.DiskMisses == 0 && s.Disk == (BackendStats{}) {
		return base
	}
	base += fmt.Sprintf("; disk: %d hits, %d misses, %d entries (%d bytes), %d writes (%d errors), %d quarantined",
		s.DiskHits, s.DiskMisses, s.Disk.Entries, s.Disk.Bytes, s.Disk.Writes, s.Disk.WriteErrors, s.Disk.Quarantined)
	return base
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	var disk BackendStats
	if be := e.tier(); be != nil {
		disk = be.Stats()
	}
	return Stats{
		Requests:        e.requests.Load(),
		Hits:            e.hits.Load(),
		Deduped:         e.deduped.Load(),
		Misses:          e.misses.Load(),
		DiskHits:        e.diskHits.Load(),
		DiskMisses:      e.diskMisses.Load(),
		Disk:            disk,
		Evictions:       e.evicted.Load(),
		CacheEntries:    uint64(e.CacheEntries()),
		TraceInstr:      e.traces.built.Load(),
		TraceReplays:    e.traces.replays.Load(),
		TraceBypasses:   e.traces.bypasses.Load(),
		TraceEvictions:  e.traces.evictions.Load(),
		LockstepGroups:  e.lockstepGroups.Load(),
		LockstepLanes:   e.lockstepLanes.Load(),
		ScalarFallbacks: e.scalarFallbacks.Load(),
	}
}

// ResetStats zeroes the counters (the caches are kept), so a phase's
// savings can be measured in isolation.
func (e *Engine) ResetStats() {
	e.requests.Store(0)
	e.hits.Store(0)
	e.deduped.Store(0)
	e.misses.Store(0)
	e.diskHits.Store(0)
	e.diskMisses.Store(0)
	e.evicted.Store(0)
	e.traces.built.Store(0)
	e.traces.replays.Store(0)
	e.traces.bypasses.Store(0)
	e.traces.evictions.Store(0)
	e.lockstepGroups.Store(0)
	e.lockstepLanes.Store(0)
	e.scalarFallbacks.Store(0)
}
