package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// randomValidConfig draws a valid configuration by perturbing the initial
// point the way the explorer does, re-fitting sizes at each step.
func randomValidConfig(rng *rand.Rand, t tech.Params) (Config, bool) {
	clock := 0.2 + rng.Float64()*0.3
	width := 1 + rng.Intn(8)
	sched := 1 + rng.Intn(3)
	lsqD := 1 + rng.Intn(3)
	l1Lat := 1 + rng.Intn(5)
	l2Lat := l1Lat + 1 + rng.Intn(10)

	iq := timing.FitIQ(timing.BudgetNs(clock, sched, t), width, t)
	rob := timing.FitROB(timing.BudgetNs(clock, sched, t), width, t)
	lsq := timing.FitLSQ(timing.BudgetNs(clock, lsqD, t), t)
	l1 := timing.MaxCache(timing.BudgetNs(clock, l1Lat, t), 1, t)
	l2 := timing.MaxCache(timing.BudgetNs(clock, l2Lat, t), 2, t)
	if iq == 0 || rob == 0 || lsq == 0 || l1.Sets == 0 || l2.Sets == 0 || rob < width {
		return Config{}, false
	}
	if iq > rob {
		iq = rob
	}
	c := Config{
		ClockNs:        clock,
		Width:          width,
		FrontEndStages: timing.FrontEndStages(clock, t),
		ROBSize:        rob,
		IQSize:         iq,
		LSQSize:        lsq,
		SchedDepth:     sched,
		LSQDepth:       lsqD,
		WakeupMinLat:   sched - 1,
		L1D:            l1,
		L1DLat:         l1Lat,
		L2:             l2,
		L2Lat:          l2Lat,
		MemCycles:      timing.MemoryCycles(clock, t),
		Bpred:          InitialConfig(t).Bpred,
	}
	return c, c.Validate(t) == nil
}

// TestQuickWholeStackInvariants drives random valid configurations and
// random suite workloads through the entire simulator stack, checking the
// invariants every run must satisfy: exact commit count, IPC bounded by
// width, positive IPT, and determinism.
func TestQuickWholeStackInvariants(t *testing.T) {
	tp := tech.Default()
	suite := workload.Suite()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg, ok := randomValidConfig(rng, tp)
		if !ok {
			return true // infeasible draw; nothing to check
		}
		prof := suite[rng.Intn(len(suite))]
		const n = 2500
		r1, err := Run(cfg, prof, n, tp)
		if err != nil {
			t.Logf("run failed for %v on %s: %v", cfg, prof.Name, err)
			return false
		}
		if r1.Instructions != n {
			return false
		}
		if r1.IPC() > float64(cfg.Width)+1e-9 || r1.IPC() <= 0 {
			return false
		}
		if r1.IPT() != r1.IPC()/cfg.ClockNs {
			return false
		}
		r2, err := Run(cfg, prof, n, tp)
		if err != nil {
			return false
		}
		return r1.Cycles == r2.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomGroup draws k valid configurations (k in 1..8), redrawing
// infeasible points. About half the lanes take a configuration from pool
// instead, so a reused runner keeps meeting shapes its lanes already hold
// and its reset-instead-of-reallocate paths are exercised.
func randomGroup(rng *rand.Rand, t tech.Params, pool []Config) []Config {
	cs := make([]Config, 1+rng.Intn(8))
	for i := range cs {
		if rng.Intn(2) == 0 {
			cs[i] = pool[rng.Intn(len(pool))]
			continue
		}
		for {
			if c, ok := randomValidConfig(rng, t); ok {
				cs[i] = c
				break
			}
		}
	}
	return cs
}

// TestQuickLockstepMatchesReference is the one evaluation path's
// contract over random inputs: one reused MultiRunner runs random groups
// of 1–8 valid configurations on random suite profiles, and every lane
// must equal a fresh scalar reference run of its configuration over the
// same stream, bit for bit — whatever shapes the runner's lanes held
// before.
func TestQuickLockstepMatchesReference(t *testing.T) {
	tp := tech.Default()
	suite := workload.Suite()
	pool := randomGroup(rand.New(rand.NewSource(1)), tp, []Config{InitialConfig(tp)})
	var mr MultiRunner
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomGroup(rng, tp, pool)
		prof := suite[rng.Intn(len(suite))]
		n := 1000 + rng.Intn(2000)
		tr := workload.NewTraceReaderFrom(generator(t, prof), n)
		dst := make([]Result, len(cs))
		if err := mr.RunSource(dst, cs, tr, prof.Name, n, tp); err != nil {
			t.Logf("group of %d on %s: %v", len(cs), prof.Name, err)
			return false
		}
		for i := range cs {
			tr.Reset()
			if want := scalarReference(t, cs[i], tr, prof.Name, n, nil); dst[i] != want {
				t.Logf("lane %d of %d (%v on %s, n=%d):\n got  %+v\nwant %+v",
					i, len(cs), cs[i], prof.Name, n, dst[i].Result, want.Result)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickKernelBounds checks physical bounds every simulation must obey,
// over random valid configurations and budgets: a core commits at most
// Width instructions per cycle; every load is served by exactly one level;
// every load and store accesses L1 once; a load served below L1 missed
// L1; and a load served by memory missed L2.
func TestQuickKernelBounds(t *testing.T) {
	tp := tech.Default()
	suite := workload.Suite()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg, ok := randomValidConfig(rng, tp)
		if !ok {
			return true // infeasible draw; nothing to check
		}
		prof := suite[rng.Intn(len(suite))]
		n := 1000 + rng.Intn(4001)
		var loads, stores uint64
		gen := generator(t, prof)
		for i := 0; i < n; i++ {
			var ins workload.Instr
			gen.Next(&ins)
			switch ins.Op {
			case workload.OpLoad:
				loads++
			case workload.OpStore:
				stores++
			}
		}
		r, err := Run(cfg, prof, n, tp)
		if err != nil {
			t.Logf("%v on %s: %v", cfg, prof.Name, err)
			return false
		}
		res := r.Result
		bounds := []struct {
			name string
			ok   bool
		}{
			{"Cycles*Width >= Instructions", res.Cycles*uint64(cfg.Width) >= res.Instructions},
			{"LoadsL1+LoadsL2+LoadsMem == loads", res.LoadsL1+res.LoadsL2+res.LoadsMem == loads},
			{"L1.Accesses == loads+stores", res.L1.Accesses == loads+stores},
			{"LoadsL2+LoadsMem <= L1.Misses", res.LoadsL2+res.LoadsMem <= res.L1.Misses},
			{"LoadsMem <= L2.Misses", res.LoadsMem <= res.L2.Misses},
		}
		for _, b := range bounds {
			if !b.ok {
				t.Logf("%s violated by %v on %s (n=%d, %d loads, %d stores): %+v",
					b.name, cfg, prof.Name, n, loads, stores, res)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
