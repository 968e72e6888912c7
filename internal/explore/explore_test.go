package explore

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// testEngine is the package-test engine: explorations require an injected
// engine, and sharing one across tests mirrors how a Session wires it.
var testEngine = evalengine.New(evalengine.Options{})

// tinyOptions keeps unit tests fast; correctness of the machinery does not
// need a long anneal.
func tinyOptions(seed int64) Options {
	o := DefaultOptions(seed)
	o.Engine = testEngine
	o.Iterations = 12
	o.Chains = 2
	o.ShortBudget = 2500
	o.LongBudget = 5000
	return o
}

func TestOptionsValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Iterations = 0 },
		func(o *Options) { o.Chains = 0 },
		func(o *Options) { o.Chains = maxChains + 1 },
		func(o *Options) { o.NeighborhoodK = maxNeighborhoodK + 1 },
		func(o *Options) { o.ShortBudget = 10 },
		func(o *Options) { o.LongBudget = o.ShortBudget - 1 },
		func(o *Options) { o.InitTemp = 0 },
		func(o *Options) { o.CoolRate = 1.0 },
		func(o *Options) { o.Tech.FO4Ns = 0 },
		func(o *Options) { o.Engine = nil },
	}
	for i, mutate := range bad {
		o := DefaultOptions(1)
		o.Engine = testEngine
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("case %d: validate accepted %+v", i, o)
		}
	}
	good := DefaultOptions(1)
	good.Engine = testEngine
	if err := good.validate(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

func TestWorkloadRejectsInvalidProfile(t *testing.T) {
	if _, err := Workload(context.Background(), workload.Profile{}, tinyOptions(1)); err == nil {
		t.Error("Workload accepted an invalid profile")
	}
}

func TestInitialPointIsTable3(t *testing.T) {
	tp := tech.Default()
	cfg, ok := initialPoint().fit(tp)
	if !ok {
		t.Fatal("initial point infeasible")
	}
	want := sim.InitialConfig(tp)
	if cfg.ClockNs != want.ClockNs || cfg.Width != want.Width ||
		cfg.SchedDepth != want.SchedDepth || cfg.L1DLat != want.L1DLat || cfg.L2Lat != want.L2Lat {
		t.Errorf("initial point %v deviates from Table 3 %v", cfg, want)
	}
	// Table 3's IQ of 64 must be reachable under the fit discipline.
	if cfg.IQSize < 64 {
		t.Errorf("initial IQ = %d, want >= 64 (Table 3)", cfg.IQSize)
	}
}

func TestFitProducesValidConfigs(t *testing.T) {
	// Every feasible fit must pass sim.Config.Validate — the explorer
	// relies on fit() never producing an un-runnable configuration.
	tp := tech.Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := initialPoint()
		for i := 0; i < 12; i++ {
			pt, _ = neighbor(pt, rng)
		}
		cfg, ok := pt.fit(tp)
		if !ok {
			return true // infeasible is fine; invalid is not
		}
		return cfg.Validate(tp) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNeighborStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pt := initialPoint()
	for i := 0; i < 2000; i++ {
		pt, _ = neighbor(pt, rng)
		if pt.clock < 0.08 || pt.clock > 0.6 {
			t.Fatalf("clock %v escaped bounds", pt.clock)
		}
		if pt.width < 1 || pt.width > 8 {
			t.Fatalf("width %d escaped bounds", pt.width)
		}
		if pt.schedDepth < 1 || pt.schedDepth > 5 || pt.lsqDepth < 1 || pt.lsqDepth > 4 {
			t.Fatalf("depths escaped bounds: %+v", pt)
		}
		if pt.l1Lat < 1 || pt.l1Lat > 8 || pt.l2Lat < 2 || pt.l2Lat > 30 {
			t.Fatalf("cache latencies escaped bounds: %+v", pt)
		}
	}
}

func TestWorkloadImprovesOnInitialConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	tp := tech.Default()
	prof, _ := workload.ByName("gzip")
	opt := tinyOptions(11)
	opt.Iterations = 40
	out, err := Workload(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: the Table 3 starting point at the same budget.
	base, err := sim.Run(sim.InitialConfig(tp), prof, opt.LongBudget, tp)
	if err != nil {
		t.Fatal(err)
	}
	if out.BestIPT < base.IPT()*0.99 {
		t.Errorf("exploration IPT %.3f did not reach initial config IPT %.3f", out.BestIPT, base.IPT())
	}
	if out.Evaluations <= opt.Iterations {
		t.Errorf("evaluations %d suspiciously low for %d iterations x %d chains",
			out.Evaluations, opt.Iterations, opt.Chains)
	}
	if err := out.Best.Validate(tp); err != nil {
		t.Errorf("best config invalid: %v", err)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	prof, _ := workload.ByName("vpr")
	opt := tinyOptions(5)
	a, err := Workload(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workload(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestIPT != b.BestIPT || a.Best.String() != b.Best.String() {
		t.Errorf("exploration not deterministic:\n%v %f\n%v %f", a.Best, a.BestIPT, b.Best, b.BestIPT)
	}
}

func TestTraceRecordsRollbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	prof, _ := workload.ByName("gcc")
	opt := tinyOptions(9)
	opt.Iterations = 25
	_, steps, _ := recordSteps(t, prof, opt)
	feasible := 0
	for _, sp := range steps {
		s := sp.Attrs.(*tracing.StepAttrs)
		if !s.Feasible {
			continue
		}
		feasible++
		if s.BestScore <= 0 {
			t.Errorf("step %d has non-positive best IPT", sp.Arg)
		}
		// The rollback rule: the current point never stays below half
		// the best (it is reset the same iteration it falls below).
		if s.RolledBack && s.Score >= s.BestScore/2 && s.Accepted {
			// A rollback may trigger right at the boundary; only a
			// clearly-above-half accepted candidate rolling back is
			// wrong.
			if s.Score > s.BestScore*0.55 {
				t.Errorf("step %d rolled back at IPT %.3f vs best %.3f", sp.Arg, s.Score, s.BestScore)
			}
		}
		if s.CurrentScore < s.BestScore/2 {
			t.Errorf("step %d left the chain at %.3f, below half the best %.3f", sp.Arg, s.CurrentScore, s.BestScore)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible step recorded")
	}
}

func TestSuiteCrossSeedingAdoptsBetterConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	// Two contrasting workloads, deliberately asymmetric budgets: after
	// cross-seeding, every workload's recorded IPT must be at least what
	// its own exploration found (adoption can only help).
	profs := []workload.Profile{}
	for _, n := range []string{"gzip", "mcf"} {
		p, _ := workload.ByName(n)
		profs = append(profs, p)
	}
	opt := tinyOptions(21)
	outs, err := Suite(context.Background(), profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	tp := tech.Default()
	for i, o := range outs {
		if o.Workload != profs[i].Name {
			t.Errorf("outcome %d is %s, want %s", i, o.Workload, profs[i].Name)
		}
		// Recorded IPT must match re-simulating the recorded config.
		r, err := sim.Run(o.Best, profs[i], opt.LongBudget, tp)
		if err != nil {
			t.Fatal(err)
		}
		if r.IPT() != o.BestIPT {
			t.Errorf("%s recorded IPT %.4f != re-simulated %.4f", o.Workload, o.BestIPT, r.IPT())
		}
	}
}

func TestPowerObjectiveChangesTheOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	// The §3 extension: exploring for 1/EDP must find a configuration at
	// least as energy-efficient as the IPT-optimal one, and reports its
	// score consistently.
	prof, _ := workload.ByName("crafty")
	opt := tinyOptions(31)
	opt.Iterations = 30

	perf, err := Workload(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Objective = power.ObjInverseEDP
	eff, err := Workload(context.Background(), prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	tp := tech.Default()
	scoreOf := func(cfg sim.Config) float64 {
		r, err := sim.Run(cfg, prof, opt.LongBudget, tp)
		if err != nil {
			t.Fatal(err)
		}
		s, err := power.Score(r, power.ObjInverseEDP, tp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if effScore, perfScore := scoreOf(eff.Best), scoreOf(perf.Best); effScore < perfScore*0.99 {
		t.Errorf("EDP-explored config scores %.4f, below IPT-explored %.4f on its own objective",
			effScore, perfScore)
	}
	if eff.BestScore <= 0 || eff.BestIPT <= 0 {
		t.Errorf("outcome missing score/IPT: %+v", eff)
	}
}

func TestNeighborhoodKEngagesLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	// A widened neighborhood must batch its candidates: the engine sees
	// lockstep groups, the search stays deterministic, and the outcome is
	// still a valid configuration scored consistently.
	prof, _ := workload.ByName("twolf")
	run := func() (Outcome, evalengine.Stats) {
		eng := evalengine.New(evalengine.Options{})
		opt := tinyOptions(17)
		opt.Engine = eng
		opt.NeighborhoodK = 3
		out, err := Workload(context.Background(), prof, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out, eng.Stats()
	}
	a, sa := run()
	b, _ := run()

	if sa.LockstepGroups == 0 {
		t.Errorf("NeighborhoodK=3 ran no lockstep groups: %s", sa)
	}
	if sa.LockstepLanes < 2*sa.LockstepGroups {
		t.Errorf("lockstep groups average under 2 lanes: %s", sa)
	}
	if a.BestIPT != b.BestIPT || a.Best.String() != b.Best.String() {
		t.Errorf("neighborhood search not deterministic:\n%v %f\n%v %f", a.Best, a.BestIPT, b.Best, b.BestIPT)
	}
	tp := tech.Default()
	if err := a.Best.Validate(tp); err != nil {
		t.Errorf("best config invalid: %v", err)
	}
	// A best-of-3 proposal evaluates (up to) 3 points per step; the outcome
	// must account for them.
	if a.Evaluations <= tinyOptions(17).Iterations*2 {
		t.Errorf("evaluations %d too low for a widened neighborhood", a.Evaluations)
	}
}

func TestRandomConfigsBounds(t *testing.T) {
	tp := tech.Default()
	if got := RandomConfigs(0, 1, tp); len(got) != 0 {
		t.Errorf("RandomConfigs(0) returned %d", len(got))
	}
	cfgs := RandomConfigs(25, 2, tp)
	for _, c := range cfgs {
		if err := c.Validate(tp); err != nil {
			t.Errorf("sampled config invalid: %v", err)
		}
	}
}

func BenchmarkAnnealStep(b *testing.B) {
	// One full evaluation (fit + short simulation): the unit of
	// exploration cost.
	tp := tech.Default()
	prof, _ := workload.ByName("gcc")
	rng := rand.New(rand.NewSource(1))
	pt := initialPoint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cand, _ := neighbor(pt, rng)
		cfg, ok := cand.fit(tp)
		if !ok {
			continue
		}
		if _, err := sim.Run(cfg, prof, 2500, tp); err != nil {
			b.Fatal(err)
		}
	}
}
