// Introspection at the sim layer: the MultiRunner contract over
// pipeline's CPI accounting and interval sampling. The kernel-level
// invariants (stack sums, bit-identity, lane equality) are proven in
// internal/pipeline; here the claims are about the reusable runner —
// armed runs dump deterministic JSONL, lockstep lanes tap the same
// records the scalar reference does, and disarming returns a pooled
// runner to the allocation-free fast path.

package sim

import (
	"bytes"
	"testing"

	"xpscalar/internal/introspect"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// introspectedRun drives one armed one-lane evaluation into a fresh ring.
func introspectedRun(t *testing.T, cfg Config, name string, n, every int) (Result, []introspect.Record) {
	t.Helper()
	tp := tech.Default()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	tr := workload.NewTraceReaderFrom(generator(t, prof), n)

	ring := introspect.NewRing(1 << 12)
	tap := &introspect.Tap{}
	tap.Init(ring, name, cfg.String(), 0)
	var r MultiRunner
	r.SetIntrospection(every, []pipeline.IntervalRecorder{tap})
	dst := make([]Result, 1)
	if err := r.RunSource(dst, []Config{cfg}, tr, name, n, tp); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d records", ring.Dropped())
	}
	return dst[0], ring.Records()
}

// Two armed runs of the same evaluation must serialize byte-identical
// JSONL — the determinism the xptrace intervals view and its golden tests
// stand on.
func TestRunnerIntervalDumpDeterminism(t *testing.T) {
	cfg := InitialConfig(tech.Default())
	dump := func() []byte {
		res, recs := introspectedRun(t, cfg, "gzip", 6000, 500)
		if len(recs) == 0 {
			t.Fatal("no interval records")
		}
		if got := res.CPI.Cycles(); got != res.Result.Cycles {
			t.Fatalf("CPI stack sums to %d, result has %d cycles", got, res.Result.Cycles)
		}
		var buf bytes.Buffer
		if err := introspect.WriteJSONL(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Errorf("interval dumps differ between identical runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

// A lockstep group's taps must record exactly what per-lane scalar
// reference runs record — same labels, same sequence, same counters — and
// each lane's Result.CPI must match its scalar twin.
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

	// Scalar reference: one armed run per configuration, lane label j so
	// the records compare against the lockstep taps field for field.
	var want []introspect.Record
	wantCPI := make([]pipeline.CPIStack, len(cfgs))
	for j, cfg := range cfgs {
		tr := workload.NewTraceReaderFrom(generator(t, prof), n)
		ring := introspect.NewRing(1 << 12)
		tap := &introspect.Tap{}
		tap.Init(ring, name, cfg.String(), j)
		res := scalarReference(t, cfg, tr, name, n, &pipeline.Introspection{Interval: every, Recorder: tap})
		wantCPI[j] = res.CPI
		want = append(want, ring.Records()...)
	}

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTraceReaderFrom(gen, n)
	ring := introspect.NewRing(1 << 12)
	recs := make([]pipeline.IntervalRecorder, len(cfgs))
	for j := range cfgs {
		tap := &introspect.Tap{}
		tap.Init(ring, name, cfgs[j].String(), j)
		recs[j] = tap
	}
	var mr MultiRunner
	mr.SetIntrospection(every, recs)
	dst := make([]Result, len(cfgs))
	if err := mr.RunSource(dst, cfgs, tr, name, n, tp); err != nil {
		t.Fatal(err)
	}

	for j := range cfgs {
		if dst[j].CPI != wantCPI[j] {
			t.Errorf("lane %d CPI stack diverged from scalar:\n got  %v\nwant %v", j, dst[j].CPI, wantCPI[j])
		}
	}
	got := ring.Records()
	if len(got) != len(want) {
		t.Fatalf("lockstep taps recorded %d records, scalar %d", len(got), len(want))
	}
	// Lockstep interleaves lanes at each boundary; compare per-lane
	// subsequences, which must match the scalar runs exactly.
	byLane := func(rs []introspect.Record, lane int) []introspect.Record {
		var out []introspect.Record
		for _, r := range rs {
			if r.Lane == lane {
				out = append(out, r)
			}
		}
		return out
	}
	for j := range cfgs {
		g, w := byLane(got, j), byLane(want, j)
		if len(g) != len(w) {
			t.Fatalf("lane %d: %d lockstep records vs %d scalar", j, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("lane %d record %d diverged:\n got  %+v\nwant %+v", j, i, g[i], w[i])
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
	ring := introspect.NewRing(64)
	tap := &introspect.Tap{}
	tap.Init(ring, "gzip", cs[0].String(), 0)
	r.SetIntrospection(1000, []pipeline.IntervalRecorder{tap})
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
	})
	if avg > 2 {
		t.Errorf("disarmed runner allocates %.1f times per run, want ~0", avg)
	}
}

// BenchmarkRunnerIntrospectionOff is BenchmarkRunnerSteadyState with the
// introspection hook explicitly disarmed — the number that must not move
// relative to the steady-state baseline, recorded in BENCH_kernel.json so
// the bench-compare gate holds the line.
func BenchmarkRunnerIntrospectionOff(b *testing.B) {
	benchOneLane(b, (*MultiRunner).DisableIntrospection, nil)
}

// BenchmarkRunnerIntrospectionOn prices full introspection: every cycle
// classified into a CPI bucket plus interval snapshots every 1000
// committed instructions into a ring.
func BenchmarkRunnerIntrospectionOn(b *testing.B) {
	ring := introspect.NewRing(1 << 10)
	tap := &introspect.Tap{}
	tap.Init(ring, "gzip", "bench", 0)
	benchOneLane(b, func(r *MultiRunner) {
		r.SetIntrospection(1000, []pipeline.IntervalRecorder{tap})
	}, ring)
}
