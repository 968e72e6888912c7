// Engine-level introspection: arming CPI accounting on the memoized
// engine must decorate evaluations without changing them — misses carry a
// stack that sums to their cycle count, hits replay the memoized stack,
// batches and single evaluations produce identical stacks, and the run-wide
// totals surface as scrape-time metrics.

package evalengine

import (
	"context"
	"strings"
	"testing"

	"xpscalar/internal/introspect"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
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
	eng.EnableIntrospection(0, nil) // CPI stacks alone, no sampling
	miss, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
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

	hit, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Result.CPI != miss.Result.CPI {
		t.Errorf("hit replayed a different stack:\n got  %v\nwant %v", hit.Result.CPI, miss.Result.CPI)
	}
	if got := eng.CPITotals(); got != miss.Result.CPI {
		t.Errorf("CPITotals after one miss = %v, want that miss's stack %v", got, miss.Result.CPI)
	}

	// Disarming returns subsequent misses to the undecorated fast path.
	eng.DisableIntrospection()
	off, err := eng.Evaluate(context.Background(), cfg, p, 6000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if off.Result.CPI != (pipeline.CPIStack{}) {
		t.Errorf("disarmed miss carries a CPI stack: %v", off.Result.CPI)
	}
}

// Batch misses run lockstep; their stacks and tapped interval records
// must match what per-member scalar evaluation produces.
func TestEngineBatchIntrospectionMatchesScalar(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	p := testProfile(29)
	const budget = 4000

	scalarEng := New(Options{})
	scalarEng.EnableIntrospection(0, nil)
	want := make([]Eval, len(cs))
	for i, c := range cs {
		ev, err := scalarEng.Evaluate(context.Background(), c, p, budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
	}

	ring := introspect.NewRing(1 << 10)
	batchEng := New(Options{})
	batchEng.EnableIntrospection(500, ring)
	dst := make([]Eval, len(cs))
	if err := batchEng.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
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
	if batchEng.CPITotals() != scalarEng.CPITotals() {
		t.Errorf("run-wide CPI totals diverged: batch %v, scalar %v",
			batchEng.CPITotals(), scalarEng.CPITotals())
	}

	// Every tapped record names a real member configuration and the
	// workload; sequence numbers restart per lane.
	recs := ring.Records()
	if len(recs) == 0 {
		t.Fatal("batch run tapped no interval records")
	}
	known := map[string]bool{}
	for _, c := range cs {
		known[c.String()] = true
	}
	seen := map[int]int{}
	for _, r := range recs {
		if r.Workload != p.Name {
			t.Errorf("record labeled workload %q, want %q", r.Workload, p.Name)
		}
		if !known[r.Config] {
			t.Errorf("record labeled unknown config %q", r.Config)
		}
		seen[r.Lane]++
	}
	if len(seen) != len(cs) {
		t.Errorf("records cover %d lanes, want %d", len(seen), len(cs))
	}
}

// The introspection metric families: the ring-overflow counter and the
// per-bucket CPI shares, rendered through the registry's Prometheus text.
func TestIntrospectionMetrics(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(31)

	ring := introspect.NewRing(1 << 10)
	eng := New(Options{})
	eng.EnableIntrospection(1000, ring)
	reg := telemetry.NewRegistry()
	eng.EnableTelemetry(reg)

	if _, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "xpscalar_sim_intervals_dropped_total 0") {
		t.Errorf("Prometheus text missing zero drop counter:\n%s", text)
	}
	names := pipeline.BucketNames()
	shareSum := 0.0
	for b := 0; b < pipeline.NumBuckets; b++ {
		if !strings.Contains(text, "xpscalar_cpi_share_"+names[b]+" ") {
			t.Errorf("Prometheus text missing cpi share for %s:\n%s", names[b], text)
		}
		shareSum += eng.CPITotals().Share(pipeline.Bucket(b))
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("bucket shares sum to %v, want 1", shareSum)
	}

	// Overflow a tiny ring and watch the counter move.
	tiny := introspect.NewRing(1)
	eng.EnableIntrospection(100, tiny)
	if _, err := eng.Evaluate(context.Background(), cfg, p, 7000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "xpscalar_sim_intervals_dropped_total 0") {
		t.Errorf("drop counter still zero after overflowing a capacity-1 ring:\n%s", sb.String())
	}
	if tiny.Dropped() == 0 {
		t.Error("capacity-1 ring dropped nothing")
	}
}
