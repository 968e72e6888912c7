// Cache-backend composition. A single CacheBackend behind the in-memory
// LRU was enough while persistence meant one local directory; a fleet
// composes tiers — memory LRU → local disk → remote peers — each slower
// and wider than the one before it. Tiered is that composition as a
// CacheBackend itself: Get walks the tiers in order and promotes hits
// into every faster tier, Put fans out to all of them, and Stats merges
// field-wise (each tier only populates its own counters, so summation is
// a clean merge). BatchGetter is the optional bulk-read face a tier can
// implement so a group of misses costs one round trip instead of one per
// key — the disk tier answers it with sequential reads, the remote tier
// with one POST /v1/cache/lookup per owning peer.

package evalengine

import (
	"context"

	"xpscalar/internal/telemetry"
)

// BatchGetter is the optional bulk-read face of a CacheBackend: given a
// set of keys it returns the subset it holds. EvaluateBatch uses it to
// resolve a whole group of owned misses in one exchange with the tier
// before falling back to simulation; backends that do not implement it
// are probed one key at a time.
type BatchGetter interface {
	GetBatch(keys []Key) map[Key]Eval
}

// CtxGetter is the optional context-aware read face of a CacheBackend.
// Tiers that leave the process (the remote client) implement it to record
// each request as a span under the caller's current span. The engine
// prefers it over Get whenever the backend offers it; the semantics are
// otherwise identical.
type CtxGetter interface {
	GetCtx(ctx context.Context, key Key) (Eval, bool)
}

// CtxBatchGetter is the context-aware variant of BatchGetter.
type CtxBatchGetter interface {
	GetBatchCtx(ctx context.Context, keys []Key) map[Key]Eval
}

// backendGet reads one key from a backend, routing through its
// context-aware face when it has one.
func backendGet(ctx context.Context, be CacheBackend, key Key) (Eval, bool) {
	if cg, ok := be.(CtxGetter); ok {
		return cg.GetCtx(ctx, key)
	}
	return be.Get(key)
}

// backendTelemetry is implemented by backends that export metrics of
// their own beyond what BackendStats carries (the remote client's
// per-request latency histogram, say). Engine.EnableTelemetry forwards
// its registry to the configured backend when it implements this.
type backendTelemetry interface {
	EnableTelemetry(reg *telemetry.Registry)
}

// backendGetBatch bulk-reads keys from a backend, using its native batch
// face when it has one (context-aware preferred) and a per-key Get loop
// otherwise. A single key is a plain Get on every backend: one remote
// GET, never a one-key lookup.
func backendGetBatch(ctx context.Context, be CacheBackend, keys []Key) map[Key]Eval {
	if len(keys) == 1 {
		if v, ok := backendGet(ctx, be, keys[0]); ok {
			return map[Key]Eval{keys[0]: v}
		}
		return nil
	}
	if bg, ok := be.(CtxBatchGetter); ok {
		return bg.GetBatchCtx(ctx, keys)
	}
	if bg, ok := be.(BatchGetter); ok {
		return bg.GetBatch(keys)
	}
	found := make(map[Key]Eval)
	for _, k := range keys {
		if v, ok := backendGet(ctx, be, k); ok {
			found[k] = v
		}
	}
	return found
}

// Tiered composes cache backends into one, ordered fastest first (nil
// entries are skipped). Get consults the tiers in order and promotes a
// hit into every tier before the one that answered, so a record fetched
// from a remote peer lands on local disk and the next restart serves it
// without the network. Put fans out to every tier (each tier keeps its
// own write-behind discipline). Flush and Close visit every tier and
// return the first error. With zero or one live tier the composition
// disappears: Tiered returns nil or the tier itself.
func Tiered(tiers ...CacheBackend) CacheBackend {
	live := make([]CacheBackend, 0, len(tiers))
	for _, t := range tiers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tiered{tiers: live}
}

type tiered struct {
	tiers []CacheBackend
}

// Get implements CacheBackend.
func (t *tiered) Get(key Key) (Eval, bool) {
	return t.GetCtx(context.Background(), key)
}

// GetCtx implements CtxGetter: the caller's context flows into every
// tier that can use it (the remote client's request spans).
func (t *tiered) GetCtx(ctx context.Context, key Key) (Eval, bool) {
	for i, tier := range t.tiers {
		if val, ok := backendGet(ctx, tier, key); ok {
			for _, faster := range t.tiers[:i] {
				faster.Put(key, val)
			}
			return val, true
		}
	}
	return Eval{}, false
}

// GetBatch implements BatchGetter: each tier is asked once for the keys
// still unresolved, and hits are promoted exactly as Get promotes them.
func (t *tiered) GetBatch(keys []Key) map[Key]Eval {
	return t.GetBatchCtx(context.Background(), keys)
}

// GetBatchCtx implements CtxBatchGetter; see GetCtx for why the context
// flows through.
func (t *tiered) GetBatchCtx(ctx context.Context, keys []Key) map[Key]Eval {
	found := make(map[Key]Eval)
	remaining := keys
	for i, tier := range t.tiers {
		if len(remaining) == 0 {
			break
		}
		hits := backendGetBatch(ctx, tier, remaining)
		if len(hits) == 0 {
			continue
		}
		for k, v := range hits {
			found[k] = v
			for _, faster := range t.tiers[:i] {
				faster.Put(k, v)
			}
		}
		next := remaining[:0:0]
		for _, k := range remaining {
			if _, ok := hits[k]; !ok {
				next = append(next, k)
			}
		}
		remaining = next
	}
	return found
}

// Put implements CacheBackend.
func (t *tiered) Put(key Key, val Eval) {
	for _, tier := range t.tiers {
		tier.Put(key, val)
	}
}

// Flush implements CacheBackend.
func (t *tiered) Flush() error {
	var first error
	for _, tier := range t.tiers {
		if err := tier.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close implements CacheBackend.
func (t *tiered) Close() error {
	var first error
	for _, tier := range t.tiers {
		if err := tier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats implements CacheBackend by summing the tiers field-wise. Each
// tier populates only the counters it owns (the disk store its entry and
// write counters, the remote client the Remote* family), so the sum is a
// disjoint merge, not double counting.
func (t *tiered) Stats() BackendStats {
	var out BackendStats
	for _, tier := range t.tiers {
		s := tier.Stats()
		out.Entries += s.Entries
		out.Bytes += s.Bytes
		out.Writes += s.Writes
		out.WriteErrors += s.WriteErrors
		out.Quarantined += s.Quarantined
		out.RemoteHits += s.RemoteHits
		out.RemoteMisses += s.RemoteMisses
		out.RemoteErrors += s.RemoteErrors
		out.RemoteWrites += s.RemoteWrites
		out.RemoteDropped += s.RemoteDropped
	}
	return out
}

// EnableTelemetry forwards the registry to every tier that exports its
// own metrics.
func (t *tiered) EnableTelemetry(reg *telemetry.Registry) {
	for _, tier := range t.tiers {
		if bt, ok := tier.(backendTelemetry); ok {
			bt.EnableTelemetry(reg)
		}
	}
}
