// Package tracing is the run record of the observability stack: a
// hierarchical account of a run as nested spans (run → workload → chain →
// anneal step → evaluation → simulation, plus matrix rows and pool
// dispatches), each stamped with start/end times and the worker that
// executed it. The spans that carry a run's results end with typed
// attributes (attrs.go): a step span carries the annealing move and its
// accept/reject outcome, an evaluation span each member's score, config
// and CPI stack, a matrix row its cells, the run span the engine's
// counters. One stream of spans is therefore the whole account of a run:
// where the time went and what the search decided.
//
// The recorder follows a nil-is-off seam: a nil *Recorder (equivalently, a
// zero Handle) makes every instrumentation site a single predictable
// branch with zero allocations, so the hot paths keep their uninstrumented
// cost when nobody is watching (guarded by TestDisabledZeroAllocs and
// BenchmarkDisabledSpan). When a recorder is installed, spans flow through
// the context: each layer begins a span as a child of the context's
// current span and re-parents the context for the layers below it.
//
// A recorder either buffers completed spans for a snapshot at the end of
// the run (NewRecorder) or hands each span to one consumer as it ends
// (NewRecorderFunc) — typically a StreamWriter appending it to a -trace
// file or a job's event stream. export.go reads streams back and turns
// spans into a Chrome trace-event file (one track per pool worker,
// loadable in Perfetto) or an aggregated self/total time-attribution
// table.
package tracing

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within one recorder; 0 means "no span".
type SpanID uint64

// Span kinds. The set is closed by convention, not by type: exporters and
// the attribution table aggregate by kind, so instrumentation sites should
// reuse these constants rather than invent near-duplicates.
const (
	// KindRun covers a whole tool invocation.
	KindRun = "run"
	// KindWorkload covers one workload's exploration (all chains).
	KindWorkload = "explore"
	// KindChain covers one annealing chain.
	KindChain = "chain"
	// KindStep covers one annealing iteration (move, evaluation, accept).
	KindStep = "step"
	// KindEvalHit/Dedup/Miss cover one engine evaluation, split by how it
	// was served so cache effectiveness is visible in the time breakdown.
	KindEvalHit   = "eval.hit"
	KindEvalDedup = "eval.dedup"
	KindEvalMiss  = "eval.miss"
	// KindEvalDisk covers an evaluation served from the persistent cache
	// tier: a memory-tier miss answered by the content-addressed disk
	// store instead of a simulation.
	KindEvalDisk = "eval.disk"
	// KindEvalBatch covers one engine batch evaluation — a group of design
	// points on one workload served together, lockstep when enough of them
	// miss. Its arg is the group size.
	KindEvalBatch = "eval.batch"
	// KindSource covers materializing or fetching a workload's instruction
	// stream inside an evaluation miss.
	KindSource = "source"
	// KindSimulate covers the pipeline simulation itself.
	KindSimulate = "simulate"
	// KindCell covers one row of a cross-configuration matrix: one
	// workload on every customized configuration. Its arg is the row width.
	KindCell = "cell"
	// KindDispatch covers one job execution on a pool worker.
	KindDispatch = "dispatch"
	// KindRemoteGet/Lookup cover one remote cache-tier round trip from the
	// client side: a single-key GET or a batched lookup POST to the owner
	// peer. Their arg is the number of keys requested.
	KindRemoteGet    = "remote.get"
	KindRemoteLookup = "remote.lookup"
	// KindServeGet/Put/Lookup cover the server side of the same round
	// trips: one handler invocation on the owning peer, a root span in
	// that peer's own trace.
	KindServeGet    = "serve.get"
	KindServePut    = "serve.put"
	KindServeLookup = "serve.lookup"
	// KindJob covers one scheduled xpserve job from dequeue to completion.
	KindJob = "job"
)

// Span is one timed interval of a run. Values are created by Handle.Begin,
// completed by Handle.End, and immutable afterwards.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Track is the lane the span executed on: 0 for the caller's
	// goroutine, 1+w for pool worker w (see Pool.MapCtx). Exporters render
	// one Chrome-trace thread per track.
	Track int32  `json:"track,omitempty"`
	Kind  string `json:"kind"`
	// Name carries the kind-specific subject, typically a workload name.
	Name string `json:"name,omitempty"`
	// Arg carries one kind-specific integer: the chain index for chain
	// spans, the iteration for step spans, the instruction budget for
	// evaluation spans, the job index for dispatch spans.
	Arg int64 `json:"arg,omitempty"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Attrs is the kind's typed result, set by the instrumented layer on a
	// live span (ID != 0) just before End; nil on kinds that carry none.
	Attrs Attrs `json:"attrs,omitempty"`
}

// DurNs is the span's duration in nanoseconds.
func (s Span) DurNs() int64 { return s.End - s.Start }

// Recorder collects completed spans: it buffers them, or hands each to its
// consumer as it ends. All methods are safe for concurrent use and safe on
// a nil receiver, where they are no-ops; instrumented code therefore never
// guards emission.
type Recorder struct {
	clock  func() int64 // nanoseconds since construction, monotonic
	nextID atomic.Uint64

	// consume, when set, receives every span as it ends instead of the
	// buffer. It runs on the goroutine that ended the span — pool workers
	// included — so it must be safe for concurrent use.
	consume func(Span)

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder stamping spans against the wall clock.
func NewRecorder() *Recorder {
	start := time.Now()
	return &Recorder{clock: func() int64 { return int64(time.Since(start)) }}
}

// NewRecorderFunc returns a wall-clock recorder that hands each span to
// consume as it ends and retains nothing: Spans and Len stay empty.
func NewRecorderFunc(consume func(Span)) *Recorder {
	r := NewRecorder()
	r.consume = consume
	return r
}

// NewRecorderClock returns a recorder with an injected clock (nanoseconds
// since some fixed origin, monotone non-decreasing) — deterministic
// timestamps for golden tests.
func NewRecorderClock(clock func() int64) *Recorder {
	return &Recorder{clock: clock}
}

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// begin stamps a new span. The span is not retained until end.
func (r *Recorder) begin(parent SpanID, track int32, kind, name string, arg int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		ID:     SpanID(r.nextID.Add(1)),
		Parent: parent,
		Track:  track,
		Kind:   kind,
		Name:   name,
		Arg:    arg,
		Start:  r.clock(),
	}
}

// end stamps the span's end time and retains it or hands it to the
// consumer. Inert spans (from a nil recorder or a zero Handle) are dropped.
func (r *Recorder) end(s Span) {
	if r == nil || s.ID == 0 {
		return
	}
	s.End = r.clock()
	if r.consume != nil {
		r.consume(s)
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Len reports how many completed spans the recorder buffers (always 0 for
// a NewRecorderFunc recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans snapshots the completed spans, ordered by start time (ties by ID,
// which is allocation order). The recorder keeps collecting; the returned
// slice is the caller's.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Handle binds a recorder to a position in the span tree (the parent every
// new span attaches under) and a track. The zero Handle is the disabled
// state: Begin returns an inert Span and End drops it, both without
// allocating.
type Handle struct {
	rec    *Recorder
	parent SpanID
	track  int32
}

// Enabled reports whether spans begun through this handle are recorded.
func (h Handle) Enabled() bool { return h.rec != nil }

// Begin starts a span under the handle's current parent.
func (h Handle) Begin(kind, name string, arg int64) Span {
	return h.rec.begin(h.parent, h.track, kind, name, arg)
}

// End completes a span begun through this handle (or any handle of the
// same recorder).
func (h Handle) End(s Span) { h.rec.end(s) }

// WithParent returns a handle whose future spans attach under s — the
// non-context way to push one level down (used where a context is not in
// scope, e.g. inside the evaluation engine's compute path).
func (h Handle) WithParent(s Span) Handle {
	h.parent = s.ID
	return h
}

// Root returns a handle at the root of rec's span tree — the server-side
// entry point where no context carries a handle yet. A nil recorder yields
// the zero (disabled) handle.
func Root(rec *Recorder) Handle {
	return Handle{rec: rec}
}

// handleKey carries a *Handle through a context.
type handleKey struct{}

// NewContext installs rec at the root of the span tree. A nil recorder
// returns ctx unchanged, keeping the disabled path allocation-free.
func NewContext(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, handleKey{}, &Handle{rec: rec})
}

// Ensure installs rec if ctx does not already carry a recorder — the
// session-level seam: a session configured with a recorder traces every
// run on it, while a context already positioned in a span tree (the CLI's
// run span) is left alone.
func Ensure(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil || FromContext(ctx).Enabled() {
		return ctx
	}
	return NewContext(ctx, rec)
}

// FromContext returns the context's tracing handle; the zero (disabled)
// Handle when none was installed.
func FromContext(ctx context.Context) Handle {
	if h, ok := ctx.Value(handleKey{}).(*Handle); ok {
		return *h
	}
	return Handle{}
}

// ChildContext returns ctx re-parented under s, so spans begun by deeper
// layers attach to it. When ctx carries no recorder or s is inert, ctx is
// returned unchanged (and nothing allocates).
func ChildContext(ctx context.Context, s Span) context.Context {
	if s.ID == 0 {
		return ctx
	}
	h := FromContext(ctx)
	if h.rec == nil {
		return ctx
	}
	// Copy after the guards: taking a variable's address forces it to the
	// heap at its declaration, so the escaping copy must not exist on the
	// disabled path (guarded by TestDisabledZeroAllocs).
	nh := h
	nh.parent = s.ID
	return context.WithValue(ctx, handleKey{}, &nh)
}

// WithTrack returns ctx whose spans land on the given track (0 is the
// caller's goroutine; pool workers use 1+worker). Unchanged when ctx
// carries no recorder.
func WithTrack(ctx context.Context, track int) context.Context {
	h := FromContext(ctx)
	if h.rec == nil {
		return ctx
	}
	nh := h
	nh.track = int32(track)
	return context.WithValue(ctx, handleKey{}, &nh)
}
