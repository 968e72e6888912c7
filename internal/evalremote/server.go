package evalremote

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/tracing"
)

// maxLookupKeys bounds one batched lookup — far above any lockstep
// group, low enough that a bogus request cannot turn into a disk scan.
const maxLookupKeys = 4096

// Source is what a cache server serves from: the read face returns a
// completed evaluation when any local tier holds it, the write face
// stores a record pushed by a fleet member. The context carries the
// handler span, so a source can record child spans (the disk probe)
// under the request. Implementations must be safe for concurrent use.
type Source interface {
	Lookup(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool)
	Store(key evalengine.Key, val evalengine.Eval)
}

// EngineSource serves an engine's memory LRU backed by its local disk
// store. It deliberately composes only LOCAL tiers: serving through the
// engine's full backend chain would re-enter a remote client and let
// fleet peers proxy-loop through each other, and storing through it
// would re-fan every received PUT back into the fleet. Lookup prefers
// the memory tier (Peek) and falls back to disk; Store memoizes into
// the LRU and persists to disk directly.
type EngineSource struct {
	Engine *evalengine.Engine
	Disk   evalengine.CacheBackend // optional local persistent tier; nil is fine
}

// Lookup implements Source: a disk probe under an open handler span is
// recorded as an eval.disk child, so a merged trace shows which tier of
// the owning peer answered.
func (s EngineSource) Lookup(ctx context.Context, key evalengine.Key) (evalengine.Eval, bool) {
	if s.Engine != nil {
		if val, ok := s.Engine.Peek(key); ok {
			return val, true
		}
	}
	if s.Disk != nil {
		h := tracing.FromContext(ctx)
		sp := h.Begin(tracing.KindEvalDisk, shortKey(key), 0)
		val, ok := s.Disk.Get(key)
		h.End(sp)
		return val, ok
	}
	return evalengine.Eval{}, false
}

// Store implements Source.
func (s EngineSource) Store(key evalengine.Key, val evalengine.Eval) {
	if s.Engine != nil {
		s.Engine.Memoize(key, val)
	}
	if s.Disk != nil {
		s.Disk.Put(key, val)
	}
}

// shortKey is the span-name form of a cache key: enough hex to correlate
// across processes without bloating every span line.
func shortKey(k evalengine.Key) string { return k.String()[:8] }

// Register mounts the cache routes on mux. The record body format is
// evalstore's exact on-disk encoding (the fixed-layout
// xpeval-record-v2), written and read through EncodeRecord/DecodeRecord.
// A record that fails to decode is a 400; a miss is a 404; PUT trusts the
// fleet to address records correctly (keys are content hashes of the
// request, not the record, so the server cannot re-derive them). A
// record under the wrong key is caught where it is served: the
// requesting engine checks that a tier record answers its request.
//
// rec, when non-nil, records one serve.* span per handler invocation,
// stamped with the caller's propagated trace context (trace ID, remote
// parent span, job ID) — the server half of cross-process tracing. A nil
// recorder keeps every handler at its uninstrumented cost.
func Register(mux *http.ServeMux, src Source, rec *tracing.Recorder) {
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := evalengine.ParseKey(r.PathValue("key"))
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServeGet, shortKey(key), 1, tracing.Extract(r.Header))
		defer h.End(sp)
		ctx := tracing.ChildContext(tracing.NewContext(r.Context(), rec), sp)
		val, ok := src.Lookup(ctx, key)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		var buf bytes.Buffer
		if err := evalstore.EncodeRecord(&buf, val); err != nil {
			http.Error(w, "encode", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(buf.Bytes())
	})

	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, ok := evalengine.ParseKey(r.PathValue("key"))
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServePut, shortKey(key), 1, tracing.Extract(r.Header))
		defer h.End(sp)
		val, err := evalstore.DecodeRecord(http.MaxBytesReader(w, r.Body, maxRecordBytes))
		if err != nil {
			http.Error(w, "bad record", http.StatusBadRequest)
			return
		}
		src.Store(key, val)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/cache/lookup", func(w http.ResponseWriter, r *http.Request) {
		var lr lookupRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRecordBytes))
		if err := dec.Decode(&lr); err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		if len(lr.Keys) > maxLookupKeys {
			http.Error(w, "too many keys", http.StatusBadRequest)
			return
		}
		h := tracing.Root(rec)
		sp := h.BeginRemote(tracing.KindServeLookup, "", int64(len(lr.Keys)), tracing.Extract(r.Header))
		defer h.End(sp)
		ctx := tracing.ChildContext(tracing.NewContext(r.Context(), rec), sp)
		hits := make(map[string][]byte)
		for _, hex := range lr.Keys {
			key, ok := evalengine.ParseKey(hex)
			if !ok {
				continue // a malformed key is that key's miss, not the batch's failure
			}
			val, ok := src.Lookup(ctx, key)
			if !ok {
				continue
			}
			var buf bytes.Buffer
			if err := evalstore.EncodeRecord(&buf, val); err != nil {
				continue
			}
			hits[hex] = buf.Bytes()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(lookupResponse{Hits: hits})
	})
}
