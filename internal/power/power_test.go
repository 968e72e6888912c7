package power

import (
	"testing"

	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

func initial(t *testing.T) (sim.Config, tech.Params) {
	t.Helper()
	tp := tech.Default()
	return sim.InitialConfig(tp), tp
}

func runOn(t *testing.T, cfg sim.Config, name string) sim.Result {
	t.Helper()
	tp := tech.Default()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	r, err := sim.Run(cfg, p, 20000, tp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEstimatePositiveAndPlausible(t *testing.T) {
	cfg, tp := initial(t)
	e, err := EstimateConfig(cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	if e.AreaMm2 <= 0 || e.StaticWatts <= 0 || e.ClockTreeNJ <= 0 {
		t.Errorf("non-positive estimate %+v", e)
	}
	for _, v := range []float64{e.IQAccessNJ, e.ROBAccessNJ, e.LSQAccessNJ, e.L1AccessNJ, e.L2AccessNJ} {
		if v <= 0 {
			t.Errorf("non-positive access energy in %+v", e)
		}
	}
	// A desktop-class core of this era: single to low tens of mm² of
	// modelled structures, watts of leakage, not kilowatts.
	if e.AreaMm2 > 200 {
		t.Errorf("area %.1fmm² implausible", e.AreaMm2)
	}
	if e.StaticWatts > 50 {
		t.Errorf("leakage %.1fW implausible", e.StaticWatts)
	}
}

func TestBiggerStructuresCostAreaAndEnergy(t *testing.T) {
	cfg, tp := initial(t)
	small, err := EstimateConfig(cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	big := cfg
	big.ROBSize = 1024
	big.L2 = timing.CacheGeom{Sets: 8192, Assoc: 4, BlockBytes: 128} // 4M
	bigE, err := EstimateConfig(big, tp)
	if err != nil {
		t.Fatal(err)
	}
	if bigE.AreaMm2 <= small.AreaMm2 {
		t.Errorf("bigger config area %.2f <= smaller %.2f", bigE.AreaMm2, small.AreaMm2)
	}
	if bigE.ROBAccessNJ <= small.ROBAccessNJ {
		t.Error("bigger ROB should cost more energy per access")
	}
	if bigE.L2AccessNJ <= small.L2AccessNJ {
		t.Error("bigger L2 should cost more energy per access")
	}
}

func TestWiderMachinesBurnMore(t *testing.T) {
	cfg, tp := initial(t)
	narrow, err := EstimateConfig(cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Width = 8
	w, err := EstimateConfig(wide, tp)
	if err != nil {
		t.Fatal(err)
	}
	if w.ClockTreeNJ <= narrow.ClockTreeNJ || w.AreaMm2 <= narrow.AreaMm2 {
		t.Errorf("width 8 should cost more clock energy and area: %+v vs %+v", w, narrow)
	}
}

func TestEvaluateProducesConsistentReport(t *testing.T) {
	cfg, tp := initial(t)
	res := runOn(t, cfg, "gzip")
	rep, err := Evaluate(res, tp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DynamicWatts <= 0 || rep.TotalWatts <= rep.DynamicWatts {
		t.Errorf("watts inconsistent: %+v", rep)
	}
	if rep.EnergyNJPerInstr <= 0 {
		t.Error("zero energy per instruction")
	}
	if rep.IPT != res.IPT() {
		t.Error("IPT not carried through")
	}
	if rep.EDP() <= 0 || rep.ED2P() <= 0 {
		t.Error("EDP/ED2P must be positive")
	}
	// ED2P = EDP / IPT.
	if d := rep.ED2P() - rep.EDP()/rep.IPT; d > 1e-9 || d < -1e-9 {
		t.Errorf("ED2P inconsistent with EDP: %v", d)
	}
}

func TestEvaluateRejectsEmptyResult(t *testing.T) {
	_, tp := initial(t)
	if _, err := Evaluate(sim.Result{}, tp); err == nil {
		t.Error("accepted empty result")
	}
}

func TestScoreObjectives(t *testing.T) {
	cfg, tp := initial(t)
	res := runOn(t, cfg, "gzip")
	ipt, err := Score(res, ObjIPT, tp)
	if err != nil || ipt != res.IPT() {
		t.Errorf("ObjIPT score = %v, %v", ipt, err)
	}
	for _, obj := range []Objective{ObjIPTPerWatt, ObjInverseEDP, ObjInverseED2P} {
		s, err := Score(res, obj, tp)
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if s <= 0 {
			t.Errorf("%v score = %v", obj, s)
		}
	}
	if _, err := Score(res, Objective(99), tp); err == nil {
		t.Error("accepted unknown objective")
	}
}

func TestEfficiencyPrefersModestCore(t *testing.T) {
	// The point of the extension: under IPT/Watt a lean core should beat
	// a maximal one on at least some workloads, flipping the raw-IPT
	// ordering or at least narrowing it drastically.
	tp := tech.Default()
	lean := sim.InitialConfig(tp)

	big := sim.InitialConfig(tp)
	big.ClockNs = 0.45
	big.FrontEndStages = 5
	big.Width = 6
	big.ROBSize = 1024
	big.IQSize = 128
	big.LSQSize = 256
	big.SchedDepth = 2
	big.WakeupMinLat = 1
	big.L2 = timing.CacheGeom{Sets: 8192, Assoc: 4, BlockBytes: 128}
	big.L2Lat = 14
	big.MemCycles = 125
	if err := big.Validate(tp); err != nil {
		t.Fatalf("big config invalid: %v", err)
	}

	p, _ := workload.ByName("crafty")
	leanRes, err := sim.Run(lean, p, 20000, tp)
	if err != nil {
		t.Fatal(err)
	}
	bigRes, err := sim.Run(big, p, 20000, tp)
	if err != nil {
		t.Fatal(err)
	}
	leanEff, err := Score(leanRes, ObjIPTPerWatt, tp)
	if err != nil {
		t.Fatal(err)
	}
	bigEff, err := Score(bigRes, ObjIPTPerWatt, tp)
	if err != nil {
		t.Fatal(err)
	}
	leanIPT := leanRes.IPT()
	bigIPT := bigRes.IPT()
	// Efficiency ordering must favour the lean core *more* than raw
	// performance does.
	if leanEff/bigEff <= leanIPT/bigIPT {
		t.Errorf("efficiency ratio %.3f should exceed performance ratio %.3f",
			leanEff/bigEff, leanIPT/bigIPT)
	}
}

func TestObjectiveStrings(t *testing.T) {
	for obj, want := range map[Objective]string{
		ObjIPT: "ipt", ObjIPTPerWatt: "ipt-per-watt", ObjInverseEDP: "1/edp", ObjInverseED2P: "1/ed2p",
	} {
		if obj.String() != want {
			t.Errorf("%d.String() = %q, want %q", obj, obj.String(), want)
		}
	}
}

func TestParseObjective(t *testing.T) {
	for _, c := range []struct {
		name string
		want Objective
		ok   bool
	}{
		{"ipt", ObjIPT, true},
		{"ipt-per-watt", ObjIPTPerWatt, true},
		{"edp", ObjInverseEDP, true},
		{"ed2p", ObjInverseED2P, true},
		{"1/edp", 0, false},
		{"IPT", 0, false},
		{"", 0, false},
	} {
		got, err := ParseObjective(c.name)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v (ok=%v)", c.name, got, err, c.want, c.ok)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p, _ := workload.ByName("gzip")
	res, err := sim.Run(cfg, p, 10000, tp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(res, tp); err != nil {
			b.Fatal(err)
		}
	}
}
