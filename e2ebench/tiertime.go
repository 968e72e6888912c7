package main

import (
	"context"
	"sync"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/telemetry"
)

// timedTier wraps a cache tier and times every call the engine makes into
// it. It forwards each optional face of the wrapped tier (CtxGetter,
// BatchGetter, CtxBatchGetter, EnableTelemetry) to the same face
// underneath, so the engine reads through the same tier paths with the
// decorator as without it; a face the tier lacks is served as the engine
// would serve it, by per-key reads.
type timedTier struct {
	inner evalengine.CacheBackend

	mu      sync.Mutex
	keys    int // keys looked up, through single and batched reads
	gets    []time.Duration
	batches []time.Duration
	puts    []time.Duration
	flushes []time.Duration
}

func newTimedTier(inner evalengine.CacheBackend) *timedTier {
	return &timedTier{inner: inner}
}

// telemetryTier is the optional metrics face of a tier (the remote
// client's); the engine forwards its registry to tiers that have it.
type telemetryTier interface {
	EnableTelemetry(reg *telemetry.Registry)
}

func (t *timedTier) note(list *[]time.Duration, start time.Time, keys int) {
	d := time.Since(start)
	t.mu.Lock()
	*list = append(*list, d)
	t.keys += keys
	t.mu.Unlock()
}

func (t *timedTier) Get(key evalengine.Key) (evalengine.Eval, bool) {
	return t.GetCtx(context.Background(), key)
}

func (t *timedTier) GetCtx(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool) {
	start := time.Now()
	val, ok := t.get(ctx, key)
	t.note(&t.gets, start, 1)
	return val, ok
}

func (t *timedTier) get(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool) {
	if cg, ok := t.inner.(evalengine.CtxGetter); ok {
		return cg.GetCtx(ctx, key)
	}
	return t.inner.Get(key)
}

func (t *timedTier) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return t.GetBatchCtx(context.Background(), keys)
}

func (t *timedTier) GetBatchCtx(ctx context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	start := time.Now()
	var found map[evalengine.Key]evalengine.Eval
	switch bg := t.inner.(type) {
	case evalengine.CtxBatchGetter:
		found = bg.GetBatchCtx(ctx, keys)
	case evalengine.BatchGetter:
		found = bg.GetBatch(keys)
	default:
		found = make(map[evalengine.Key]evalengine.Eval)
		for _, k := range keys {
			if v, ok := t.get(ctx, k); ok {
				found[k] = v
			}
		}
	}
	t.note(&t.batches, start, len(keys))
	return found
}

func (t *timedTier) Put(key evalengine.Key, val evalengine.Eval) {
	start := time.Now()
	t.inner.Put(key, val)
	t.note(&t.puts, start, 0)
}

func (t *timedTier) Flush() error {
	start := time.Now()
	err := t.inner.Flush()
	t.note(&t.flushes, start, 0)
	return err
}

func (t *timedTier) Close() error { return t.inner.Close() }

func (t *timedTier) Stats() evalengine.BackendStats { return t.inner.Stats() }

func (t *timedTier) EnableTelemetry(reg *telemetry.Registry) {
	if tt, ok := t.inner.(telemetryTier); ok {
		tt.EnableTelemetry(reg)
	}
}

// tierTimes is a snapshot of the calls a timedTier saw.
type tierTimes struct {
	keys                         int
	gets, batches, puts, flushes []time.Duration
}

func (t *timedTier) snapshot() tierTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tierTimes{
		keys:    t.keys,
		gets:    append([]time.Duration(nil), t.gets...),
		batches: append([]time.Duration(nil), t.batches...),
		puts:    append([]time.Duration(nil), t.puts...),
		flushes: append([]time.Duration(nil), t.flushes...),
	}
}
