package pipeline

import (
	"testing"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// goldenParams is the fixed configuration the golden result was captured
// under; together with the gcc profile and n=20000 it pins every Result
// field. The simulation is a pure function of these inputs, so any change
// to the values below is a behavioral change to the kernel — cycle
// accounting, predictor training order, cache replacement, or stream
// generation — and must be deliberate, with this table re-captured and the
// change called out in review. Performance refactors must not touch it.
var goldenParams = Params{
	Width: 4, FrontEndStages: 5, ROBSize: 128, IQSize: 64, LSQSize: 64,
	SchedStages: 1, LSQStages: 1, WakeupExtra: 0,
	LatL1: 2, LatL2: 12, LatMem: 150, MulLat: 3, DivLat: 20, MemPorts: 2,
}

var goldenResult = Result{
	Instructions: 20000,
	Cycles:       41929,
	Branch:       bpred.Stats{Lookups: 3091, Mispredicts: 326},
	L1:           cache.Stats{Accesses: 7578, Misses: 3529, Writebacks: 1082},
	L2:           cache.Stats{Accesses: 4611, Misses: 1864, Writebacks: 0},
	LoadsL1:      2668, LoadsL2: 1097, LoadsMem: 1204,
}

// goldenInputs returns the golden point's fresh inputs: the gcc stream, a
// default predictor and the golden cache hierarchy.
func goldenInputs(t *testing.T) (workload.Source, bpred.Predictor, *cache.Hierarchy) {
	t.Helper()
	prof, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := bpred.New(bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := cache.NewHierarchy(
		timing.CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32},
		timing.CacheGeom{Sets: 2048, Assoc: 4, BlockBytes: 128},
	)
	if err != nil {
		t.Fatal(err)
	}
	return gen, pred, mem
}

func goldenRun(t *testing.T, core *Core) Result {
	t.Helper()
	gen, pred, mem := goldenInputs(t)
	var res Result
	var err error
	if core != nil {
		res, err = core.Run(goldenParams, gen, pred, mem, 20000)
	} else {
		res, err = Run(goldenParams, gen, pred, mem, 20000)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenLane runs the golden point as a lockstep group of one on m — the
// shape every lone evaluation takes in production.
func goldenLane(t *testing.T, m *MultiCore) Result {
	t.Helper()
	gen, pred, mem := goldenInputs(t)
	dst := make([]Result, 1)
	if err := m.Run(dst, []Params{goldenParams}, gen, []bpred.Predictor{pred}, []*cache.Hierarchy{mem}, 20000); err != nil {
		t.Fatal(err)
	}
	return dst[0]
}

// TestGoldenResultGCC20k locks the full Result for a fixed (params,
// profile, n) triple against values captured from the pre-optimization
// kernel, proving batched delivery and arena reuse changed nothing
// observable.
func TestGoldenResultGCC20k(t *testing.T) {
	if got := goldenRun(t, nil); got != goldenResult {
		t.Errorf("golden result diverged:\n got  %#v\nwant %#v", got, goldenResult)
	}
}

// TestGoldenResultReusedCore reruns the golden point through one Core three
// times: a reused arena must be indistinguishable from a fresh one, even
// after an intervening run with different shapes has resized every ring.
func TestGoldenResultReusedCore(t *testing.T) {
	var core Core
	if got := goldenRun(t, &core); got != goldenResult {
		t.Fatalf("fresh core diverged: %#v", got)
	}

	// Perturb the arenas with a differently-shaped run.
	small := smallParams()
	prof, _ := workload.ByName("mcf")
	gen, _ := workload.NewGenerator(prof)
	pred, _ := bpred.New(bpred.DefaultConfig())
	mem, _ := cache.NewHierarchy(
		timing.CacheGeom{Sets: 64, Assoc: 1, BlockBytes: 32},
		timing.CacheGeom{Sets: 256, Assoc: 2, BlockBytes: 64},
	)
	if _, err := core.Run(small, gen, pred, mem, 5000); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if got := goldenRun(t, &core); got != goldenResult {
			t.Errorf("reused core run %d diverged:\n got  %#v\nwant %#v", i, got, goldenResult)
		}
	}
}

// smallParams is a narrow, shallow-window shape far from goldenParams, used
// to resize every ring of a reused arena before a golden rerun.
func smallParams() Params {
	small := goldenParams
	small.Width, small.ROBSize, small.IQSize, small.LSQSize = 1, 16, 8, 8
	return small
}

// TestGoldenResultMultiCore pins the production path: every evaluation
// runs through MultiCore, a lone one as a group of one. A one-lane run
// must reproduce the golden result on a fresh MultiCore, and again after
// the same MultiCore has run a wider group of a different shape — lane 0
// on the small params — over different lane arenas, caches and stream.
func TestGoldenResultMultiCore(t *testing.T) {
	var m MultiCore
	if got := goldenLane(t, &m); got != goldenResult {
		t.Fatalf("fresh one-lane MultiCore diverged:\n got  %#v\nwant %#v", got, goldenResult)
	}

	wide := goldenParams
	wide.Width, wide.ROBSize, wide.IQSize, wide.LSQSize = 8, 256, 128, 32
	wide.SchedStages, wide.WakeupExtra = 2, 1
	ps := []Params{smallParams(), wide, smallParams()}
	geoms := [][2]timing.CacheGeom{
		{{Sets: 64, Assoc: 1, BlockBytes: 32}, {Sets: 256, Assoc: 2, BlockBytes: 64}},
		{{Sets: 1024, Assoc: 4, BlockBytes: 64}, {Sets: 4096, Assoc: 8, BlockBytes: 128}},
		{{Sets: 128, Assoc: 2, BlockBytes: 16}, {Sets: 512, Assoc: 4, BlockBytes: 32}},
	}
	preds := make([]bpred.Predictor, len(ps))
	mems := make([]*cache.Hierarchy, len(ps))
	for i := range ps {
		var err error
		if preds[i], err = bpred.New(bpred.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if mems[i], err = cache.NewHierarchy(geoms[i][0], geoms[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := workload.ByName("mcf")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(make([]Result, len(ps)), ps, gen, preds, mems, 5000); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if got := goldenLane(t, &m); got != goldenResult {
			t.Errorf("reused one-lane MultiCore run %d diverged:\n got  %#v\nwant %#v", i, got, goldenResult)
		}
	}
}
