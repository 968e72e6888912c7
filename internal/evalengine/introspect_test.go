// Engine-level introspection: arming CPI accounting on the memoized
// engine must decorate evaluations without changing them — misses carry a
// stack that sums to their cycle count, hits replay the memoized stack,
// batches and single evaluations produce identical stacks and interval
// series, and each series rides the traced member that simulated it.

package evalengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// An armed engine's evaluations carry a complete CPI decomposition; the
// scores and results are bit-identical to an unarmed engine's, and a
// cache hit replays the miss's stack.
func TestEngineIntrospectionDecoratesEvaluations(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(23)

	plain := New(Options{})
	ref, err := plain.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(Options{})
	eng.EnableIntrospection(0) // CPI stacks alone, no sampling
	rec := tracing.NewRecorder()
	ctx := tracing.NewContext(context.Background(), rec)
	miss, err := eng.Evaluate(ctx, cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Result.Result != ref.Result.Result || miss.Score != ref.Score {
		t.Errorf("armed engine diverged:\n got  %#v score %v\nwant %#v score %v",
			miss.Result.Result, miss.Score, ref.Result.Result, ref.Score)
	}
	if got := miss.Result.CPI.Cycles(); got != miss.Result.Result.Cycles {
		t.Errorf("CPI stack sums to %d, result has %d cycles", got, miss.Result.Result.Cycles)
	}
	if miss.Result.CPI[pipeline.BucketBase] == 0 {
		t.Error("CPI stack has no base cycles")
	}

	hit, err := eng.Evaluate(ctx, cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Result.CPI != miss.Result.CPI {
		t.Errorf("hit replayed a different stack:\n got  %v\nwant %v", hit.Result.CPI, miss.Result.CPI)
	}
	// Both requests' spans carry the stack: the miss its own, the hit the
	// memoized one.
	members, _ := evalMembers(t, rec)
	if len(members) != 2 || members[0].Outcome != "miss" || members[1].Outcome != "hit" {
		t.Fatalf("recorded members %+v, want a miss then a hit", members)
	}
	for _, m := range members {
		if m.CPI == nil || !reflect.DeepEqual(m.CPI.Map(), miss.Result.CPI.Map()) {
			t.Errorf("%s member CPI %v, want %v", m.Outcome, m.CPI, miss.Result.CPI.Map())
		}
		if m.Intervals != nil {
			t.Errorf("%s member carries an interval series with sampling off", m.Outcome)
		}
	}

	// Disarming returns subsequent misses to the undecorated fast path.
	eng.DisableIntrospection()
	off, err := eng.Evaluate(ctx, cfg, p, 6000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if off.Result.CPI != (pipeline.CPIStack{}) {
		t.Errorf("disarmed miss carries a CPI stack: %v", off.Result.CPI)
	}
	if members, _ = evalMembers(t, rec); len(members) != 3 || members[2].CPI != nil {
		t.Errorf("disarmed miss's member carries a CPI stack: %+v", members[len(members)-1])
	}
}

// Batch misses run lockstep; their stacks and interval series must match
// what per-member scalar evaluation produces. Each series rides the member
// that simulated it — the span names the workload, the member its own
// configuration — and hits, failed members and untraced requests carry
// none.
func TestEngineBatchIntrospectionMatchesScalar(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	p := testProfile(29)
	const budget, every = 4000, 500

	scalarEng := New(Options{})
	scalarEng.EnableIntrospection(every)
	scalarRec := tracing.NewRecorder()
	sctx := tracing.NewContext(context.Background(), scalarRec)
	want := make([]Eval, len(cs))
	for i, c := range cs {
		ev, err := scalarEng.Evaluate(sctx, c, p, budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
	}
	wantMembers, _ := evalMembers(t, scalarRec)

	batchEng := New(Options{})
	batchEng.EnableIntrospection(every)
	rec := tracing.NewRecorder()
	ctx := tracing.NewContext(context.Background(), rec)
	dst := make([]Eval, len(cs))
	if err := batchEng.EvaluateBatch(ctx, dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if dst[i].Result.Result != want[i].Result.Result {
			t.Errorf("member %d result diverged from scalar", i)
		}
		if dst[i].Result.CPI != want[i].Result.CPI {
			t.Errorf("member %d CPI diverged:\n got  %v\nwant %v", i, dst[i].Result.CPI, want[i].Result.CPI)
		}
	}

	// Later simulations reuse the pooled runners' lane slices: each
	// member's series must be its own copy.
	if err := batchEng.EvaluateBatch(context.Background(), make([]Eval, len(cs)), cs, p, budget/2, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}

	spans := evalSpans(rec)
	if len(spans) != 1 || spans[0].Name != p.Name {
		t.Fatalf("recorded %d eval spans (first %+v), want one for %s", len(spans), spans, p.Name)
	}
	members := spans[0].Attrs.(*tracing.EvalAttrs).Members
	if len(members) != len(cs) || len(wantMembers) != len(cs) {
		t.Fatalf("batch span has %d members, scalar spans %d, want %d", len(members), len(wantMembers), len(cs))
	}
	for i, m := range members {
		if m.Outcome != "miss" || m.Config == nil || m.Config.String() != cs[i].String() {
			t.Errorf("member %d is %s of %v, want the miss of %v", i, m.Outcome, m.Config, cs[i])
		}
		got, _ := m.Intervals.([]pipeline.IntervalRecord)
		ref, _ := wantMembers[i].Intervals.([]pipeline.IntervalRecord)
		if len(got) == 0 || !reflect.DeepEqual(got, ref) {
			t.Errorf("member %d series (%d records) differs from its scalar twin (%d records)", i, len(got), len(ref))
		}
		if n := len(got); n > 0 && (got[n-1].Cycles != dst[i].Result.Result.Cycles || got[n-1].Stack != dst[i].Result.CPI) {
			t.Errorf("member %d closing record %+v does not match its result", i, got[n-1])
		}
	}

	// A repeat is served from the memo cache and carries no series; an
	// invalid member fails without one; and an untraced request copies
	// nothing, since no span would carry it.
	bad := append(append([]sim.Config{}, cs...), cs[0])
	bad[len(cs)].Width = 0
	if err := batchEng.EvaluateBatch(ctx, make([]Eval, len(bad)), bad, p, budget, tp, power.ObjIPT); err == nil {
		t.Fatal("invalid member accepted")
	}
	spans = evalSpans(rec)
	for _, m := range spans[len(spans)-1].Attrs.(*tracing.EvalAttrs).Members {
		if m.Intervals != nil {
			t.Errorf("%s member (err %v) carries an interval series", m.Outcome, m.Err)
		}
	}
	claims := []batchClaim{{}}
	if err := batchEng.runLockstep(tracing.Handle{}, make([]sim.Result, 1), []int{0}, claims, cs, p, budget, tp, batchEng.intro.Load()); err != nil {
		t.Fatal(err)
	}
	if claims[0].intervals != nil {
		t.Errorf("untraced run copied %d interval records", len(claims[0].intervals))
	}
}

// memberSeries returns the interval series of every member rec's eval.*
// spans carry, keyed by the span's workload.
func memberSeries(rec *tracing.Recorder) map[string][][]pipeline.IntervalRecord {
	out := map[string][][]pipeline.IntervalRecord{}
	for _, s := range evalSpans(rec) {
		for _, m := range s.Attrs.(*tracing.EvalAttrs).Members {
			recs, _ := m.Intervals.([]pipeline.IntervalRecord)
			out[s.Name] = append(out[s.Name], recs)
		}
	}
	return out
}

// Concurrent batches on one engine, as pool workers run them, each get
// their members' complete series: none lost, and none overwritten by a
// later run of the pooled runner that simulated it. CI runs this under
// -race (make race-hot).
func TestEngineConcurrentIntervalSeries(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 2)
	const workers, budget, every = 4, 3000, 500
	profiles := make([]workload.Profile, workers)
	for g := range profiles {
		profiles[g] = testProfile(int64(41 + g))
		profiles[g].Name = fmt.Sprintf("unit%d", g)
	}

	// Reference: each batch alone on a fresh engine.
	want := map[string][][]pipeline.IntervalRecord{}
	for _, p := range profiles {
		eng := New(Options{})
		eng.EnableIntrospection(every)
		rec := tracing.NewRecorder()
		if err := eng.EvaluateBatch(tracing.NewContext(context.Background(), rec), make([]Eval, len(cs)), cs, p, budget, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
		want[p.Name] = memberSeries(rec)[p.Name]
	}

	eng := New(Options{})
	eng.EnableIntrospection(every)
	rec := tracing.NewRecorder()
	ctx := tracing.NewContext(context.Background(), rec)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g, p := range profiles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[g] = eng.EvaluateBatch(ctx, make([]Eval, len(cs)), cs, p, budget, tp, power.ObjIPT); errs[g] != nil {
				return
			}
			// An untraced follow-up reuses a pooled runner's lane slices.
			errs[g] = eng.EvaluateBatch(context.Background(), make([]Eval, len(cs)), cs, p, budget/2, tp, power.ObjIPT)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}

	got := memberSeries(rec)
	for _, p := range profiles {
		if len(got[p.Name]) != len(cs) || len(want[p.Name]) != len(cs) {
			t.Fatalf("%s: %d traced members, %d reference, want %d", p.Name, len(got[p.Name]), len(want[p.Name]), len(cs))
		}
		for i, recs := range got[p.Name] {
			if len(recs) == 0 || !reflect.DeepEqual(recs, want[p.Name][i]) {
				t.Errorf("%s member %d series (%d records) differs from its lone run (%d records)", p.Name, i, len(recs), len(want[p.Name][i]))
			}
		}
	}
}
