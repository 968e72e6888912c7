// The optional faces of a cache backend. CacheBackend reads one key at a
// time; a backend may add BatchGetter so a group of misses costs one call
// into it instead of one per key — the disk tier answers it with one
// sequential pass — and CtxGetter/CtxBatchGetter to record its reads as
// spans under the caller's. The engine holds one backend: the in-memory
// LRU in front, the backend behind it.

package evalengine

import "context"

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

// backendGetBatch bulk-reads keys from a backend, using its native batch
// face when it has one (context-aware preferred) and a per-key Get loop
// otherwise. A single key is a plain Get on every backend, never a
// one-key batch.
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
