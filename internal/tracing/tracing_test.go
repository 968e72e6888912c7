package tracing

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// stepClock is a deterministic clock advancing a fixed amount per call.
// Atomic so the concurrent-emission test can share it (the production
// clock, time.Since, is inherently concurrency-safe).
func stepClock(step int64) func() int64 {
	var now atomic.Int64
	return func() int64 {
		return now.Add(step)
	}
}

func TestRecorderHierarchy(t *testing.T) {
	rec := NewRecorderClock(stepClock(10))
	ctx := NewContext(context.Background(), rec)

	h := FromContext(ctx)
	if !h.Enabled() {
		t.Fatal("handle from NewContext not enabled")
	}
	run := h.Begin(KindRun, "test", 0)
	ctx = ChildContext(ctx, run)

	ch := FromContext(ctx)
	chain := ch.Begin(KindChain, "gzip", 1)
	cctx := ChildContext(ctx, chain)
	step := FromContext(cctx).Begin(KindStep, "gzip", 7)
	ch.End(step)
	ch.End(chain)
	h.End(run)

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Spans are sorted by start: run, chain, step.
	if spans[0].Kind != KindRun || spans[1].Kind != KindChain || spans[2].Kind != KindStep {
		t.Fatalf("span order %q %q %q", spans[0].Kind, spans[1].Kind, spans[2].Kind)
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("chain parent %d, want run %d", spans[1].Parent, spans[0].ID)
	}
	if spans[2].Parent != spans[1].ID {
		t.Errorf("step parent %d, want chain %d", spans[2].Parent, spans[1].ID)
	}
	if spans[2].Name != "gzip" || spans[2].Arg != 7 {
		t.Errorf("step name/arg = %q/%d", spans[2].Name, spans[2].Arg)
	}
	for i, s := range spans {
		if s.End <= s.Start {
			t.Errorf("span %d not closed: [%d, %d]", i, s.Start, s.End)
		}
	}
}

func TestWithTrack(t *testing.T) {
	rec := NewRecorderClock(stepClock(1))
	ctx := NewContext(context.Background(), rec)
	wctx := WithTrack(ctx, 3)
	h := FromContext(wctx)
	s := h.Begin(KindDispatch, "", 0)
	h.End(s)
	if got := rec.Spans()[0].Track; got != 3 {
		t.Errorf("track = %d, want 3", got)
	}
}

func TestEnsure(t *testing.T) {
	a := NewRecorderClock(stepClock(1))
	b := NewRecorderClock(stepClock(1))
	ctx := Ensure(context.Background(), a)
	ctx = Ensure(ctx, b) // already carrying a; b must not displace it
	h := FromContext(ctx)
	h.End(h.Begin(KindRun, "", 0))
	if a.Len() != 1 || b.Len() != 0 {
		t.Errorf("spans landed on wrong recorder: a=%d b=%d", a.Len(), b.Len())
	}
	if got := Ensure(context.Background(), nil); got != context.Background() {
		t.Error("Ensure(nil) changed the context")
	}
}

// The disabled path — nil recorder, zero handle, untouched context — must
// not allocate: it runs inside the annealing and evaluation hot loops.
func TestDisabledZeroAllocs(t *testing.T) {
	ctx := context.Background()
	h := FromContext(ctx)
	allocs := testing.AllocsPerRun(100, func() {
		s := h.Begin(KindStep, "gzip", 3)
		_ = ChildContext(ctx, s)
		_ = WithTrack(ctx, 1)
		h.End(s)
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan is the regression guard for the disabled path's
// cost — expected ~a few ns/op, 0 allocs/op.
func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	h := FromContext(ctx)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Begin(KindStep, "gzip", int64(i))
		_ = ChildContext(ctx, s)
		h.End(s)
	}
}

// Concurrent emission from many goroutines (as the pool's workers do) must
// be safe — run under -race — and lossless.
func TestConcurrentEmission(t *testing.T) {
	rec := NewRecorderClock(stepClock(1))
	ctx := NewContext(context.Background(), rec)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := WithTrack(ctx, w+1)
			h := FromContext(wctx)
			for i := 0; i < perWorker; i++ {
				s := h.Begin(KindDispatch, "", int64(i))
				child := FromContext(ChildContext(wctx, s)).Begin(KindSimulate, "x", 0)
				h.End(child)
				h.End(s)
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Len(); got != workers*perWorker*2 {
		t.Errorf("recorded %d spans, want %d", got, workers*perWorker*2)
	}
	spans := rec.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("snapshot not start-ordered at %d", i)
		}
	}
}

// Root is the server-side entry point: a span begun under Root(rec) is a
// root of rec's tree, and Root(nil) is the disabled handle.
func TestRoot(t *testing.T) {
	rec := NewRecorderClock(stepClock(1))
	h := Root(rec)
	if !h.Enabled() {
		t.Error("Root(rec) disabled")
	}
	h.End(h.Begin(KindServeGet, "abcd1234", 1))
	if spans := rec.Spans(); len(spans) != 1 || spans[0].Parent != 0 || spans[0].Kind != KindServeGet {
		t.Errorf("spans under Root = %+v, want one root serve.get", spans)
	}
	if Root(nil).Enabled() {
		t.Error("Root(nil) enabled")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() || r.Len() != 0 || r.Spans() != nil {
		t.Error("nil recorder not inert")
	}
	var h Handle
	h.End(h.Begin(KindRun, "", 0)) // must not panic
	if NewContext(context.Background(), nil) != context.Background() {
		t.Error("NewContext(nil) changed the context")
	}
}
