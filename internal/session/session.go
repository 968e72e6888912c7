// Package session owns one complete, isolated instance of the evaluation
// stack: a memoized engine (cache + trace store + worker pool) plus the
// telemetry hooks wired to it. Before this package existed the engine was
// a process-wide singleton (evalengine.Default()); a Session makes the
// same sharing an explicit, injectable value instead, so tests, servers
// and tools can run isolated sessions side by side — two sessions never
// share a cache, a pool, or a recorder.
//
// The xpscalar facade preserves its zero-config API by delegating to a
// lazily created default session (Default); everything underneath takes
// the session — or its engine — explicitly.
package session

import (
	"context"
	"sync"

	"xpscalar/internal/core"
	"xpscalar/internal/evalengine"
	"xpscalar/internal/explore"
	"xpscalar/internal/introspect"
	"xpscalar/internal/power"
	"xpscalar/internal/regression"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// Options configures a Session. The zero value selects defaults.
type Options struct {
	// Engine sizes the session's evaluation engine (cache entries,
	// shards, trace cap, pool workers) and carries its optional persistent
	// cache tier (Engine.Backend, typically an evalstore.Store); a session
	// with a backend must be Closed to flush write-behind records.
	Engine evalengine.Options
	// Recorder, when non-nil, records hierarchical execution spans for
	// every run on this session (see internal/tracing). Contexts that
	// already carry a recorder — the CLI installs one rooted at a run
	// span — take precedence; the session's recorder is the programmatic
	// seam. Nil (the default) keeps every instrumented path at its
	// uninstrumented cost.
	Recorder *tracing.Recorder
}

// Session is one instance of the evaluation stack. Safe for concurrent
// use; all methods share the session's engine, so redundant points
// requested by different layers (an annealing chain and a matrix cell,
// say) are simulated once per session.
type Session struct {
	engine *evalengine.Engine
	rec    *tracing.Recorder
}

// New constructs an isolated session.
func New(o Options) *Session {
	return &Session{engine: evalengine.New(o.Engine), rec: o.Recorder}
}

var (
	defaultMu   sync.Mutex
	defaultSess *Session
)

// Default returns the lazily created process-default session, the one the
// xpscalar facade's zero-config API runs on. Code that wants isolation —
// tests, servers hosting several tenants — should construct its own with
// New instead.
func Default() *Session {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultSess == nil {
		defaultSess = New(Options{})
	}
	return defaultSess
}

// SetDefault replaces the process-default session and returns the previous
// one (nil if none had been created). Passing nil resets the lazy slot, so
// the next Default() builds a fresh zero-config session. This is the seam
// tests and tools use to run the facade's zero-config API against a
// configured session — a disk-backed cache, say — and then restore
// isolation afterwards. The caller owns closing the displaced session.
func SetDefault(s *Session) *Session {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	prev := defaultSess
	defaultSess = s
	return prev
}

// Close releases the session's durable resources: it flushes and closes
// the engine's persistent cache tier (a no-op for memory-only sessions).
// The session stays usable afterwards — evaluation continues memory-only —
// so Close is safe on shutdown paths while late work drains. Idempotent.
func (s *Session) Close() error {
	return s.engine.Close()
}

// Flush blocks until every evaluation handed to the persistent cache tier
// is durable. A no-op for memory-only sessions.
func (s *Session) Flush() error {
	return s.engine.Flush()
}

// Engine returns the session's evaluation engine.
func (s *Session) Engine() *evalengine.Engine { return s.engine }

// Recorder returns the session's span recorder (nil when tracing is off).
func (s *Session) Recorder() *tracing.Recorder { return s.rec }

// trace attaches the session's recorder to ctx unless one is already
// installed; with no recorder configured this is a no-op returning ctx.
func (s *Session) trace(ctx context.Context) context.Context {
	return tracing.Ensure(ctx, s.rec)
}

// Pool returns the session's worker pool, the fan-out primitive every
// simulation caller in the session shares.
func (s *Session) Pool() *evalengine.Pool { return s.engine.Pool() }

// Stats snapshots the session engine's counters.
func (s *Session) Stats() evalengine.Stats { return s.engine.Stats() }

// ResetStats zeroes the session engine's counters (caches are kept).
func (s *Session) ResetStats() { s.engine.ResetStats() }

// EnableTelemetry registers the session engine's counters and histograms
// with a metrics registry.
func (s *Session) EnableTelemetry(reg *telemetry.Registry) { s.engine.EnableTelemetry(reg) }

// EnableIntrospection arms CPI-stack accounting — and, with a non-nil
// ring and positive interval, interval sampling — on the session engine's
// uncached simulations.
func (s *Session) EnableIntrospection(interval int, ring *introspect.Ring) {
	s.engine.EnableIntrospection(interval, ring)
}

// DisableIntrospection returns the session's simulations to the
// accounting-off fast path.
func (s *Session) DisableIntrospection() { s.engine.DisableIntrospection() }

// Evaluate runs one memoized evaluation on the session's engine.
func (s *Session) Evaluate(ctx context.Context, cfg sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) (evalengine.Eval, error) {
	return s.engine.Evaluate(s.trace(ctx), cfg, p, budget, t, obj)
}

// EvaluateBatch runs a group of memoized evaluations of one workload at
// one budget on the session's engine; members that miss the cache are
// simulated as a single lockstep group over one shared replay of the
// instruction stream. dst[i] receives the evaluation of cfgs[i].
func (s *Session) EvaluateBatch(ctx context.Context, dst []evalengine.Eval, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) error {
	return s.engine.EvaluateBatch(s.trace(ctx), dst, cfgs, p, budget, t, obj)
}

// Explore runs the annealing search for one workload on this session.
// opt.Engine is overridden with the session's engine.
func (s *Session) Explore(ctx context.Context, p workload.Profile, opt explore.Options) (explore.Outcome, error) {
	opt.Engine = s.engine
	return explore.Workload(s.trace(ctx), p, opt)
}

// ExploreSuite explores every profile on this session (with the paper's
// cross-seeding round). opt.Engine is overridden with the session's
// engine. On cancellation it returns the completed outcomes alongside the
// context's error.
func (s *Session) ExploreSuite(ctx context.Context, profiles []workload.Profile, opt explore.Options) ([]explore.Outcome, error) {
	opt.Engine = s.engine
	return explore.Suite(s.trace(ctx), profiles, opt)
}

// CrossMatrix builds the cross-configuration IPT matrix on this session.
func (s *Session) CrossMatrix(ctx context.Context, profiles []workload.Profile, configs []sim.Config, n int, t tech.Params) (*core.Matrix, error) {
	return core.BuildMatrix(s.trace(ctx), s.engine, profiles, configs, n, t)
}

// CollectSamples gathers regression training data on this session.
func (s *Session) CollectSamples(ctx context.Context, p workload.Profile, configs []sim.Config, instr int, t tech.Params) ([]regression.Sample, error) {
	return regression.CollectSamples(s.trace(ctx), s.engine, p, configs, instr, t)
}
