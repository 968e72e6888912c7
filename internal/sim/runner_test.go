package sim

import (
	"strings"
	"testing"

	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// TestRunnerMatchesFreshRun proves the arena-reuse contract on the
// production path: one MultiRunner running groups of one across different
// configurations and workloads must reproduce a fresh scalar reference
// run bit for bit, in any order.
func TestRunnerMatchesFreshRun(t *testing.T) {
	tp := tech.Default()
	base := InitialConfig(tp)

	narrow := base
	narrow.Width, narrow.ROBSize, narrow.IQSize, narrow.LSQSize = 1, 32, 16, 16
	smallCache := base
	smallCache.L1D = timing.CacheGeom{Sets: 128, Assoc: 2, BlockBytes: 32}
	smallCache.L1DLat = 2

	points := []struct {
		cfg  Config
		name string
		n    int
	}{
		{base, "gzip", 12000},
		{narrow, "mcf", 8000},
		{smallCache, "crafty", 10000},
		{base, "gzip", 12000}, // revisit after shape changes
	}

	var r MultiRunner
	dst := make([]Result, 1)
	for i, pt := range points {
		prof, ok := workload.ByName(pt.name)
		if !ok {
			t.Fatalf("profile %s missing", pt.name)
		}
		want, _ := scalarReference(t, pt.cfg, generator(t, prof), pt.name, pt.n, nil)
		if err := r.RunSource(dst, []Config{pt.cfg}, generator(t, prof), pt.name, pt.n, tp); err != nil {
			t.Fatalf("point %d reused: %v", i, err)
		}
		if dst[0] != want {
			t.Errorf("point %d (%s on %s): reused runner diverged:\n got  %#v\nwant %#v",
				i, pt.name, pt.cfg, dst[0].Result, want.Result)
		}
		fresh, err := Run(pt.cfg, prof, pt.n, tp)
		if err != nil {
			t.Fatalf("point %d fresh: %v", i, err)
		}
		if fresh != want {
			t.Errorf("point %d: sim.Run diverged from the scalar reference", i)
		}
	}
}

// TestRunnerSteadyStateAllocs is the allocation-free kernel guard: once a
// MultiRunner's arenas are warm and the instruction source is replayed in
// place, a one-lane evaluation must not allocate — also when consecutive
// runs change the cache geometries, as annealing moves do.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	tp := tech.Default()
	base := InitialConfig(tp)
	smaller := base
	smaller.L1D = timing.CacheGeom{Sets: 128, Assoc: 2, BlockBytes: 32} // 8K
	smaller.L2 = timing.CacheGeom{Sets: 1024, Assoc: 4, BlockBytes: 64} // 256K
	prof, _ := workload.ByName("gzip")
	const n = 5000

	for _, tc := range []struct {
		name string
		cfgs []Config // run in turn, one per evaluation
	}{
		{"same config", []Config{base}},
		{"alternating cache geometries, larger first", []Config{base, smaller}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := workload.NewTraceReaderFrom(generator(t, prof), n)
			dst := make([]Result, 1)
			var r MultiRunner
			run := 0
			next := func() {
				tr.Reset()
				cs := tc.cfgs[run%len(tc.cfgs) : run%len(tc.cfgs)+1]
				run++
				if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the arenas, predictor and caches.
			for range tc.cfgs {
				next()
			}
			avg := testing.AllocsPerRun(10, next)
			// ~0 with a little slack for runtime noise; the seed kernel sat
			// at ~21k allocations per run here.
			if avg > 2 {
				t.Errorf("steady-state evaluation allocates %.1f times per run, want ~0", avg)
			}
		})
	}
}

// TestRunValidatesBeforeGeneratorSetup locks the fix for Run paying
// generator construction before config validation: a request that is
// invalid on both axes must report the configuration error, proving
// validation happens first.
func TestRunValidatesBeforeGeneratorSetup(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	cfg.Width = 0 // invalid config
	var prof workload.Profile
	prof.Name = "broken" // zero fractions: invalid profile too

	_, err := Run(cfg, prof, 1000, tp)
	if err == nil {
		t.Fatal("Run accepted an invalid config")
	}
	if !strings.Contains(err.Error(), "sim:") {
		t.Errorf("error %q is not the config validation error; generator setup ran first", err)
	}
}

// BenchmarkRunnerSteadyState measures the reusable-kernel hot path a lone
// cache miss rides in the evaluation engine: a one-lane MultiRunner with
// warm arenas, trace replay, no per-run setup.
func BenchmarkRunnerSteadyState(b *testing.B) {
	benchOneLane(b, nil)
}

// benchOneLane times a warm one-lane MultiRunner over a 20k-instruction
// gzip replay. arm, when non-nil, sets up introspection before warming.
func benchOneLane(b *testing.B, arm func(*MultiRunner)) {
	tp := tech.Default()
	cs := []Config{InitialConfig(tp)}
	prof, _ := workload.ByName("gzip")
	const n = 20000

	tr := workload.NewTraceReaderFrom(generator(b, prof), n)
	dst := make([]Result, 1)
	var r MultiRunner
	if arm != nil {
		arm(&r)
	}
	if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if err := r.RunSource(dst, cs, tr, "gzip", n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
}
