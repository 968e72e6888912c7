// Cancellation semantics of the exploration layer: cancelling mid-suite
// returns context.Canceled promptly with the completed outcomes, and a
// cancelled run never perturbs the engine — a later uncancelled run on the
// same engine is bit-identical to one on a fresh engine.

package explore

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// cancelAfterSteps returns ctx under a recorder that cancels it once n
// annealing steps have ended, cutting the search off mid-chain
// deterministically enough for tests without reaching into the annealer.
func cancelAfterSteps(ctx context.Context, n int64, cancel context.CancelFunc) context.Context {
	var seen atomic.Int64
	rec := tracing.NewRecorderFunc(func(s tracing.Span) {
		if s.Kind == tracing.KindStep && seen.Add(1) == n {
			cancel()
		}
	})
	return tracing.NewContext(ctx, rec)
}

// TestWorkloadPreCancelled: a context cancelled before the call dispatches
// nothing and surfaces the context's error.
func TestWorkloadPreCancelled(t *testing.T) {
	p, _ := workload.ByName("gzip")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Workload(ctx, p, tinyOptions(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSuiteCancellationLeavesCacheConsistent is the cancellation contract
// end to end: cancelling mid-suite returns context.Canceled with only
// completed outcomes, and because context errors are never memoized, the
// same engine then reproduces — bit for bit — what a fresh engine computes.
func TestSuiteCancellationLeavesCacheConsistent(t *testing.T) {
	var profiles []workload.Profile
	for _, n := range []string{"gzip", "mcf"} {
		p, _ := workload.ByName(n)
		profiles = append(profiles, p)
	}

	// Reference: an uncancelled suite on a fresh engine.
	ref := tinyOptions(27)
	ref.Engine = evalengine.New(evalengine.Options{})
	want, err := Suite(context.Background(), profiles, ref)
	if err != nil {
		t.Fatal(err)
	}

	// The same suite on a second engine, cancelled a few steps in.
	eng := evalengine.New(evalengine.Options{})
	opt := tinyOptions(27)
	opt.Engine = eng
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, err := Suite(cancelAfterSteps(ctx, 5, cancel), profiles, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Suite returned %v, want context.Canceled", err)
	}
	for _, o := range done {
		if o.Workload == "" {
			t.Fatal("partial outcomes contain an unfinished entry")
		}
	}

	// Re-run uncancelled on the engine the cancelled run touched.
	got, err := Suite(context.Background(), profiles, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suite after a cancelled run diverged from a fresh engine:\n got %+v\nwant %+v", got, want)
	}
}
