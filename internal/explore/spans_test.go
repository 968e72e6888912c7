package explore

import (
	"context"
	"testing"

	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// recordSteps runs one exploration under a buffering recorder and returns
// its outcome with the step and chain spans it recorded.
func recordSteps(t *testing.T, p workload.Profile, opt Options) (Outcome, []tracing.Span, []tracing.Span) {
	t.Helper()
	rec := tracing.NewRecorder()
	out, err := Workload(tracing.NewContext(context.Background(), rec), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var steps, chains []tracing.Span
	for _, s := range rec.Spans() {
		switch s.Kind {
		case tracing.KindStep:
			steps = append(steps, s)
		case tracing.KindChain:
			chains = append(chains, s)
		}
	}
	return out, steps, chains
}

// A recorded exploration must report every iteration of every chain as a
// step span and each chain's completion as a chain span, each ending with
// its attributes — and produce bit for bit the outcome an unrecorded run
// does: recording never perturbs the search.
func TestObserverSeesEveryStepAndChain(t *testing.T) {
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("no gzip profile")
	}

	opt := tinyOptions(3)
	base, err := Workload(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	out, steps, chains := recordSteps(t, p, opt)
	if out != base {
		t.Errorf("recorded run diverged: got %+v, want %+v", out, base)
	}

	if len(chains) != opt.Chains {
		t.Fatalf("got %d chain spans, want %d", len(chains), opt.Chains)
	}
	perChain := make(map[int]int)
	for _, s := range steps {
		a, ok := s.Attrs.(*tracing.StepAttrs)
		if !ok {
			t.Fatalf("step span %+v carries no step attributes", s)
		}
		if s.Name != p.Name {
			t.Fatalf("step span for workload %q", s.Name)
		}
		if a.TotalIterations != opt.Iterations {
			t.Fatalf("step TotalIterations = %d, want %d", a.TotalIterations, opt.Iterations)
		}
		if a.Move == "" {
			t.Fatal("step span with empty move class")
		}
		if s.Arg < 1 || s.Arg > int64(opt.Iterations) {
			t.Fatalf("step iteration %d out of range", s.Arg)
		}
		if a.Feasible && (a.Budget == 0 || a.BestScore <= 0) {
			t.Fatalf("feasible step without budget or best score: %+v", a)
		}
		perChain[a.Chain]++
	}
	for c := 0; c < opt.Chains; c++ {
		if perChain[c] != opt.Iterations {
			t.Errorf("chain %d reported %d steps, want %d", c, perChain[c], opt.Iterations)
		}
	}
	evals, best := 0, 0.0
	for _, s := range chains {
		a, ok := s.Attrs.(*tracing.ChainAttrs)
		if !ok || s.Name != p.Name || a.BestIPT <= 0 {
			t.Fatalf("chain span %+v: want gzip chain attributes", s)
		}
		evals += a.Evaluations
		best = max(best, a.BestScore)
	}
	if evals != base.Evaluations || best != base.BestScore {
		t.Errorf("chain spans total %d evaluations, best %v; outcome has %d, %v",
			evals, best, base.Evaluations, base.BestScore)
	}
}
