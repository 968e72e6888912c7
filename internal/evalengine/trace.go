// Trace reuse. Every sim.Run used to rebuild a workload's synthetic
// instruction stream from its generator, even though the stream is a
// deterministic function of the profile alone and the pipeline consumes
// exactly n instructions per evaluation. The trace store materializes each
// profile's stream once, lazily extended to the longest budget requested,
// and hands out cheap replay readers over shared prefixes — the same
// instructions, generated once instead of once per evaluation.

package evalengine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"xpscalar/internal/workload"
)

// traceStore caches materialized instruction streams per profile, bounded
// by a total instruction budget with least-recently-used eviction across
// profiles.
type traceStore struct {
	cap int // total cached instructions across all profiles

	mu      sync.Mutex
	entries map[string]*traceEntry
	order   *list.List // front = most recently used; values are keys

	built     atomic.Uint64 // instructions generated into the store
	replays   atomic.Uint64 // sources served from cached streams
	bypasses  atomic.Uint64 // requests too large to cache
	evictions atomic.Uint64 // profile streams evicted
}

// traceEntry is one profile's materialized stream. The generator and slice
// are guarded by mu; size mirrors len(instrs) but is guarded by the store's
// mutex so eviction never needs an entry's lock (avoiding lock-order
// inversion between entries).
type traceEntry struct {
	key  string
	elem *list.Element
	size int // guarded by traceStore.mu

	mu     sync.Mutex
	gen    *workload.Generator
	instrs []workload.Instr
}

func newTraceStore(capInstr int) *traceStore {
	return &traceStore{
		cap:     capInstr,
		entries: make(map[string]*traceEntry),
		order:   list.New(),
	}
}

// profileKey is the profile's fixed binary layout, the one the request
// key's preimage writes: two profiles share it exactly when every field is
// equal, and profiles with equal fields generate identical streams.
func profileKey(p workload.Profile) string { return string(appendProfile(nil, p)) }

// source returns a Source replaying the first n instructions of the
// profile's stream, materializing (or extending) the cached trace as
// needed. Requests larger than the store's capacity bypass the cache and
// get a fresh generator — identical stream, no reuse.
func (s *traceStore) source(p workload.Profile, n int) (workload.Source, error) {
	if n > s.cap {
		s.bypasses.Add(1)
		return workload.NewGenerator(p)
	}
	key := profileKey(p)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		gen, err := workload.NewGenerator(p)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		e = &traceEntry{key: key, gen: gen}
		e.elem = s.order.PushFront(key)
		s.entries[key] = e
	} else {
		s.order.MoveToFront(e.elem)
	}
	s.mu.Unlock()

	e.mu.Lock()
	if n > len(e.instrs) {
		base := len(e.instrs)
		e.instrs = append(e.instrs, make([]workload.Instr, n-base)...)
		for i := base; i < n; i++ {
			e.gen.Next(&e.instrs[i])
		}
		s.built.Add(uint64(n - base))
		s.grown(e, n-base)
	}
	// Full-capacity reslice: replays stay valid even if the entry is
	// later extended (append re-allocates) or evicted.
	instrs := e.instrs[:n:n]
	e.mu.Unlock()
	s.replays.Add(1)
	return &replaySource{instrs: instrs}, nil
}

// grown charges the entry's growth against the store budget and evicts
// least-recently-used streams (never the one just used) until it fits.
func (s *traceStore) grown(e *traceEntry, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[e.key] != e {
		return // evicted while growing; its readers stay valid
	}
	e.size += n
	total := 0
	for _, ent := range s.entries {
		total += ent.size
	}
	for total > s.cap && s.order.Len() > 1 {
		back := s.order.Back()
		if back == e.elem {
			break
		}
		key := back.Value.(string)
		victim := s.entries[key]
		total -= victim.size
		delete(s.entries, key)
		s.order.Remove(back)
		s.evictions.Add(1)
	}
}

// replaySource replays a materialized instruction slice. Like
// workload.TraceReader it wraps at the end, though the pipeline consumes
// exactly len(instrs) per evaluation. The kernel reads it through
// NextBatch; Next completes workload.Source.
type replaySource struct {
	instrs []workload.Instr
	pos    int
}

func (r *replaySource) Next(ins *workload.Instr) {
	*ins = r.instrs[r.pos]
	r.pos++
	if r.pos == len(r.instrs) {
		r.pos = 0
	}
}

// NextBatch copies the next len(dst) instructions out of the materialized
// stream — the near-memcpy fast path the pipeline's batched fetch rides.
func (r *replaySource) NextBatch(dst []workload.Instr) int {
	n := 0
	for n < len(dst) {
		c := copy(dst[n:], r.instrs[r.pos:])
		n += c
		r.pos += c
		if r.pos == len(r.instrs) {
			r.pos = 0
		}
	}
	return n
}
