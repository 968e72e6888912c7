// Introspection at the sim layer: the MultiRunner contract over
// pipeline's CPI accounting and interval sampling. The kernel-level
// invariants (stack sums, bit-identity, lane equality) are proven in
// internal/pipeline; here the claims are about the reusable runner —
// armed runs produce byte-identical series however often the runner is
// reused, lockstep lanes record the same series the scalar reference
// does, and disarming returns a pooled runner to the allocation-free fast
// path.

package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// introspectedRun drives one armed one-lane evaluation on r and returns
// its result and the lane's interval series.
func introspectedRun(t *testing.T, r *MultiRunner, cfg Config, name string, n, every int) (Result, []pipeline.IntervalRecord) {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	tr := workload.NewTraceReaderFrom(generator(t, prof), n)
	r.SetIntrospection(every)
	dst := make([]Result, 1)
	if err := r.RunSource(dst, []Config{cfg}, tr, name, n, tech.Default()); err != nil {
		t.Fatal(err)
	}
	return dst[0], r.LaneIntervals(0)
}

// Two armed runs of the same evaluation on one reused runner must encode
// byte-identical series — the determinism the xptrace intervals view and
// its golden tests stand on. The second run reuses the lane's slice, so
// this also proves a run starts its series afresh.
func TestRunnerIntervalDumpDeterminism(t *testing.T) {
	cfg := InitialConfig(tech.Default())
	var r MultiRunner
	dump := func() []byte {
		res, recs := introspectedRun(t, &r, cfg, "gzip", 6000, 500)
		if len(recs) == 0 {
			t.Fatal("no interval records")
		}
		if got := res.CPI.Cycles(); got != res.Result.Cycles {
			t.Fatalf("CPI stack sums to %d, result has %d cycles", got, res.Result.Cycles)
		}
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Errorf("interval series differ between identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// Rebinding a reused runner to another workload, configuration and
// sampling period starts a fresh series: the second run records exactly
// what a fresh runner records, with nothing left of the longer first
// series.
func TestRunnerIntervalsRestartOnRebind(t *testing.T) {
	wide := InitialConfig(tech.Default())
	narrow := wide
	narrow.Width, narrow.ROBSize, narrow.IQSize, narrow.LSQSize = 1, 32, 16, 16
	var fresh MultiRunner
	_, want := introspectedRun(t, &fresh, narrow, "gzip", 3000, 500)

	var r MultiRunner
	if _, first := introspectedRun(t, &r, wide, "mcf", 6000, 250); len(first) <= len(want) {
		t.Fatalf("first run recorded %d records, want more than the rebound run's %d", len(first), len(want))
	}
	_, got := introspectedRun(t, &r, narrow, "gzip", 3000, 500)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("rebound runner recorded %d records, a fresh runner %d:\n got  %+v\nwant %+v", len(got), len(want), got, want)
	}
}

// A lockstep group's lanes must record exactly the series per-lane scalar
// reference runs record — same sequence, same counters — and each lane's
// Result.CPI must match its scalar twin.
func TestLockstepIntervalTapsMatchScalar(t *testing.T) {
	tp := tech.Default()
	base := InitialConfig(tp)
	narrow := base
	narrow.Width, narrow.ROBSize, narrow.IQSize, narrow.LSQSize = 1, 32, 16, 16
	small := base
	small.L1D = timing.CacheGeom{Sets: 64, Assoc: 1, BlockBytes: 32}
	cfgs := []Config{base, narrow, small}
	const name, n, every = "mcf", 6000, 750
	prof, _ := workload.ByName(name)

	// Scalar reference: one armed run per configuration.
	want := make([][]pipeline.IntervalRecord, len(cfgs))
	wantCPI := make([]pipeline.CPIStack, len(cfgs))
	for j, cfg := range cfgs {
		tr := workload.NewTraceReaderFrom(generator(t, prof), n)
		res, series := scalarReference(t, cfg, tr, name, n, &pipeline.Introspection{Interval: every})
		wantCPI[j], want[j] = res.CPI, series
	}

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	var mr MultiRunner
	mr.SetIntrospection(every)
	dst := make([]Result, len(cfgs))
	if err := mr.RunSource(dst, cfgs, tr, name, n, tp); err != nil {
		t.Fatal(err)
	}

	for j := range cfgs {
		if dst[j].CPI != wantCPI[j] {
			t.Errorf("lane %d CPI stack diverged from scalar:\n got  %v\nwant %v", j, dst[j].CPI, wantCPI[j])
		}
		got := mr.LaneIntervals(j)
		if len(got) == 0 || len(got) != len(want[j]) {
			t.Fatalf("lane %d: %d lockstep records vs %d scalar", j, len(got), len(want[j]))
		}
		for i := range got {
			if got[i] != want[j][i] {
				t.Errorf("lane %d record %d diverged:\n got  %+v\nwant %+v", j, i, got[i], want[j][i])
			}
		}
	}
}

// Disarming introspection must return a pooled runner to the zero-alloc
// steady state with bit-identical results — the contract that lets the
// evaluation engine arm and disarm pooled runners freely.
func TestRunnerIntrospectionOffAllocs(t *testing.T) {
	tp := tech.Default()
	cs := []Config{InitialConfig(tp)}
	prof, _ := workload.ByName("gzip")
	const n = 5000

	tr := workload.NewTraceReaderFrom(generator(t, prof), n)
	dst := make([]Result, 1)
	var r MultiRunner
	if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
		t.Fatal(err)
	}
	baseline := dst[0]

	// Arm with sampling for one run, then disarm.
	r.SetIntrospection(1000)
	tr.Reset()
	if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
		t.Fatal(err)
	}
	if dst[0].Result != baseline.Result {
		t.Errorf("armed run diverged:\n got  %#v\nwant %#v", dst[0].Result, baseline.Result)
	}
	r.DisableIntrospection()

	avg := testing.AllocsPerRun(10, func() {
		tr.Reset()
		if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
			t.Fatal(err)
		}
		if dst[0].Result != baseline.Result {
			t.Fatal("disarmed run diverged from baseline")
		}
		if dst[0].CPI != (pipeline.CPIStack{}) {
			t.Fatal("disarmed run reported a CPI stack")
		}
		if len(r.LaneIntervals(0)) != 0 {
			t.Fatal("disarmed run reported interval records")
		}
	})
	if avg > 2 {
		t.Errorf("disarmed runner allocates %.1f times per run, want ~0", avg)
	}
}

// BenchmarkRunnerIntrospectionOff is BenchmarkRunnerSteadyState with the
// introspection hook explicitly disarmed — the number that must not move
// relative to the steady state; both are in the kernel speed gate
// (`make bench-compare`), which holds each against the parent commit.
func BenchmarkRunnerIntrospectionOff(b *testing.B) {
	benchOneLane(b, (*MultiRunner).DisableIntrospection)
}

// BenchmarkRunnerIntrospectionOn prices full introspection: every cycle
// classified into a CPI bucket plus an interval snapshot every 1000
// committed instructions, appended to the lane's reused series.
func BenchmarkRunnerIntrospectionOn(b *testing.B) {
	benchOneLane(b, func(r *MultiRunner) { r.SetIntrospection(1000) })
}
