// Span kinds of a one-member Evaluate. xptrace's report and phase
// breakdown, the span goldens and the benchmark's layer map all classify
// evaluations by the kind of their request span, so the kinds are part of
// the engine's contract: exactly one eval.* span per request, finalized to
// how the request was served.

package evalengine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
)

// evalSpans returns the request-level spans (every eval.* kind) of rec.
func evalSpans(rec *tracing.Recorder) []tracing.Span {
	var out []tracing.Span
	for _, s := range rec.Spans() {
		if strings.HasPrefix(s.Kind, "eval.") {
			out = append(out, s)
		}
	}
	return out
}

// childKinds counts the kinds of the spans parented directly under id.
func childKinds(rec *tracing.Recorder, id tracing.SpanID) map[string]int {
	out := map[string]int{}
	for _, s := range rec.Spans() {
		if s.Parent == id {
			out[s.Kind]++
		}
	}
	return out
}

// tracedEvaluate runs one Evaluate under a fresh recorder.
func tracedEvaluate(t *testing.T, eng *Engine, cfg sim.Config, budget int) *tracing.Recorder {
	t.Helper()
	tp := tech.Default()
	rec := tracing.NewRecorder()
	ctx := tracing.NewContext(context.Background(), rec)
	if _, err := eng.Evaluate(ctx, cfg, testProfile(83), budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	return rec
}

// oneEvalSpan asserts rec holds exactly one request span, of kind want.
func oneEvalSpan(t *testing.T, rec *tracing.Recorder, want string) tracing.Span {
	t.Helper()
	spans := evalSpans(rec)
	if len(spans) != 1 {
		t.Fatalf("got %d request spans %+v, want exactly one %s", len(spans), spans, want)
	}
	if spans[0].Kind != want {
		t.Fatalf("request span kind %q, want %q", spans[0].Kind, want)
	}
	return spans[0]
}

func TestEvaluateSpanKinds(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	const budget = 3000

	t.Run("miss-then-hit", func(t *testing.T) {
		eng := New(Options{})
		rec := tracedEvaluate(t, eng, cfg, budget)
		miss := oneEvalSpan(t, rec, tracing.KindEvalMiss)
		kids := childKinds(rec, miss.ID)
		if kids[tracing.KindSource] != 1 || kids[tracing.KindSimulate] != 1 || len(kids) != 2 {
			t.Errorf("miss children %v, want one source and one simulate", kids)
		}
		if miss.Arg != budget {
			t.Errorf("miss span arg %d, want the budget %d", miss.Arg, budget)
		}

		rec = tracedEvaluate(t, eng, cfg, budget)
		hit := oneEvalSpan(t, rec, tracing.KindEvalHit)
		if kids := childKinds(rec, hit.ID); len(kids) != 0 {
			t.Errorf("hit span has children %v", kids)
		}
	})

	t.Run("disk", func(t *testing.T) {
		be := newMemBackend()
		warm := New(Options{})
		v, err := warm.Evaluate(context.Background(), cfg, testProfile(83), budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		be.Put(KeyOf(cfg, testProfile(83), budget, tp, power.ObjIPT), v)

		eng := New(Options{Backend: be})
		rec := tracedEvaluate(t, eng, cfg, budget)
		disk := oneEvalSpan(t, rec, tracing.KindEvalDisk)
		if kids := childKinds(rec, disk.ID); kids[tracing.KindSimulate] != 0 {
			t.Errorf("disk-served request simulated: children %v", kids)
		}
		be.mu.Lock()
		gets, batches := be.gets, be.batches
		be.mu.Unlock()
		if gets != 1 || batches != 0 {
			t.Errorf("one owned miss read the tier with %d gets and %d batches, want 1 and 0", gets, batches)
		}
	})

	t.Run("dedup", func(t *testing.T) {
		// The owner's tier read blocks until released, holding its run in
		// flight while a second request for the same point arrives.
		be := &gateBackend{memBackend: newMemBackend(), entered: make(chan struct{}, 1), gate: make(chan struct{})}
		eng := New(Options{Backend: be})
		owner := make(chan error, 1)
		go func() {
			_, err := eng.Evaluate(context.Background(), cfg, testProfile(83), budget, tp, power.ObjIPT)
			owner <- err
		}()
		<-be.entered
		rec := tracing.NewRecorder()
		joined := make(chan error, 1)
		go func() {
			ctx := tracing.NewContext(context.Background(), rec)
			_, err := eng.Evaluate(ctx, cfg, testProfile(83), budget, tp, power.ObjIPT)
			joined <- err
		}()
		for eng.Stats().Deduped == 0 {
			time.Sleep(time.Millisecond)
		}
		close(be.gate)
		for _, ch := range []chan error{owner, joined} {
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
		}
		oneEvalSpan(t, rec, tracing.KindEvalDedup)
	})

	t.Run("batch", func(t *testing.T) {
		eng := New(Options{})
		rec := tracing.NewRecorder()
		ctx := tracing.NewContext(context.Background(), rec)
		cs := batchConfigs(t, tp, 2)
		if err := eng.EvaluateBatch(ctx, make([]Eval, len(cs)), cs, testProfile(83), budget, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
		oneEvalSpan(t, rec, tracing.KindEvalBatch)
	})
}

// gateBackend is a memBackend whose Get announces itself on entered and
// then blocks until gate is closed.
type gateBackend struct {
	*memBackend
	entered, gate chan struct{}
}

func (b *gateBackend) Get(k Key) (Eval, bool) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.gate
	return b.memBackend.Get(k)
}

// TestEvaluateInvalidConfigError: an invalid configuration fails with
// exactly its validation error, unwrapped, so callers can match it.
func TestEvaluateInvalidConfigError(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	cfg.Width = 0
	want := cfg.Validate(tp)
	if want == nil {
		t.Fatal("test config unexpectedly valid")
	}
	eng := New(Options{})
	for i := 0; i < 2; i++ { // the miss, then the memoized error
		_, err := eng.Evaluate(context.Background(), cfg, testProfile(83), 3000, tp, power.ObjIPT)
		if err == nil || err.Error() != want.Error() || errors.Unwrap(err) != errors.Unwrap(want) {
			t.Fatalf("call %d: error %v, want exactly %v", i, err, want)
		}
	}
}
