// Cancellation semantics of the matrix builder: cancelling mid-build
// returns the context's error and no partial matrix, and leaves the engine
// cache consistent — the later uncancelled build is bit-identical to one on
// a fresh engine.

package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

func TestBuildMatrixCancellationLeavesCacheConsistent(t *testing.T) {
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	mcf, _ := workload.ByName("mcf")
	profiles := []workload.Profile{gzip, mcf}
	slow := sim.InitialConfig(tp)
	slow.L2Lat += 4
	configs := []sim.Config{sim.InitialConfig(tp), slow}

	// Reference matrix on a fresh engine.
	fresh := evalengine.New(evalengine.Options{})
	want, err := BuildMatrix(context.Background(), fresh, profiles, configs, 6000, tp)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the first completed row: the build must report the
	// context's error and withhold the matrix (a partial one would corrupt
	// every downstream figure of merit).
	e2 := evalengine.New(evalengine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows atomic.Int32
	rec := tracing.NewRecorderFunc(func(s tracing.Span) {
		if s.Kind == tracing.KindCell && rows.Add(1) == 1 {
			cancel()
		}
	})
	m, err := BuildMatrix(tracing.NewContext(ctx, rec), e2, profiles, configs, 6000, tp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled build returned a partial matrix")
	}

	// The cells the cancelled build did complete live in e2's cache; the
	// uncancelled re-build must agree bit for bit with the fresh engine.
	got, err := BuildMatrix(context.Background(), e2, profiles, configs, 6000, tp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("matrix after a cancelled build diverged from a fresh engine:\n got %+v\nwant %+v", got, want)
	}
}

func TestBuildMatrixPreCancelled(t *testing.T) {
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	if _, err := BuildMatrix(contextCancelled(), eng, []workload.Profile{gzip},
		[]sim.Config{sim.InitialConfig(tp)}, 2000, tp); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func contextCancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
