package core

import (
	"context"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// eng is the package-test engine: the matrix builders take an injected
// engine, and sharing one across the tests exercises the memoized path the
// way a Session would.
var eng = evalengine.New(evalengine.Options{})

func TestBuildMatrixEndToEnd(t *testing.T) {
	// A small end-to-end cross-configuration run: two contrasting
	// workloads on two contrasting (hand-built) configurations.
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	mcf, _ := workload.ByName("mcf")

	fast := sim.InitialConfig(tp) // general-purpose Table 3 core

	// A memory-oriented core: bigger window, bigger L2, slower clock.
	big := sim.InitialConfig(tp)
	big.ClockNs = 0.45
	big.FrontEndStages = 5
	big.ROBSize = 512
	big.IQSize = 64
	big.LSQSize = 256
	big.SchedDepth = 1
	big.WakeupMinLat = 0
	big.L1D = sim.InitialConfig(tp).L1D
	big.L1DLat = 3
	big.L2 = timing.CacheGeom{Sets: 8192, Assoc: 4, BlockBytes: 128} // 4M
	big.L2Lat = 14
	big.MemCycles = 125
	if err := big.Validate(tp); err != nil {
		t.Fatalf("big config invalid: %v", err)
	}

	profiles := []workload.Profile{gzip, mcf}
	configs := []sim.Config{fast, big}
	m, err := BuildMatrix(context.Background(), eng, profiles, configs, 25000, tp)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 {
		t.Fatalf("matrix size %d", m.N())
	}
	if m.Names[0] != "gzip" || m.Names[1] != "mcf" {
		t.Errorf("names = %v", m.Names)
	}
	for w := 0; w < 2; w++ {
		for a := 0; a < 2; a++ {
			if m.IPT[w][a] <= 0 {
				t.Errorf("IPT[%d][%d] = %v", w, a, m.IPT[w][a])
			}
		}
	}
	// The memory-bound workload must prefer the big-window slow core
	// relative to gzip's preference: mcf's ratio big/fast exceeds
	// gzip's.
	mcfRatio := m.IPT[1][1] / m.IPT[1][0]
	gzipRatio := m.IPT[0][1] / m.IPT[0][0]
	if mcfRatio <= gzipRatio {
		t.Errorf("mcf big/fast ratio %.3f should exceed gzip's %.3f", mcfRatio, gzipRatio)
	}
}

func TestBuildMatrixRejectsMismatch(t *testing.T) {
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	if _, err := BuildMatrix(context.Background(), eng, []workload.Profile{gzip}, nil, 1000, tp); err == nil {
		t.Error("accepted mismatched profiles/configs")
	}
	// A repeated workload fails before any row simulates.
	fresh := evalengine.New(evalengine.Options{})
	cfg := sim.InitialConfig(tp)
	if _, err := BuildMatrix(context.Background(), fresh, []workload.Profile{gzip, gzip}, []sim.Config{cfg, cfg}, 1000, tp); err == nil {
		t.Error("accepted a repeated workload")
	}
	if st := fresh.Stats(); st.Requests != 0 {
		t.Errorf("a repeated workload was rejected after %d evaluations, want 0", st.Requests)
	}
}

func TestBuildMatrixDeterministic(t *testing.T) {
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	vpr, _ := workload.ByName("vpr")
	cfgs := []sim.Config{sim.InitialConfig(tp), sim.InitialConfig(tp)}
	profs := []workload.Profile{gzip, vpr}
	a, err := BuildMatrix(context.Background(), eng, profs, cfgs, 8000, tp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildMatrix(context.Background(), eng, profs, cfgs, 8000, tp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPT {
		for j := range a.IPT[i] {
			if a.IPT[i][j] != b.IPT[i][j] {
				t.Errorf("BuildMatrix not deterministic at [%d][%d]", i, j)
			}
		}
	}
}

// Each matrix row's cell span ends with the row's cells: one (arch, IPT)
// pair per configuration, equal to the matrix the build returns.
func TestBuildMatrixRowSpans(t *testing.T) {
	tp := tech.Default()
	gzip, _ := workload.ByName("gzip")
	vpr, _ := workload.ByName("vpr")
	slow := sim.InitialConfig(tp)
	slow.L2Lat += 4
	profs := []workload.Profile{gzip, vpr}
	rec := tracing.NewRecorder()
	m, err := BuildMatrix(tracing.NewContext(context.Background(), rec), eng, profs,
		[]sim.Config{sim.InitialConfig(tp), slow}, 8000, tp)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, s := range rec.Spans() {
		if s.Kind != tracing.KindCell {
			continue
		}
		rows++
		a := s.Attrs.(*tracing.CellAttrs)
		w := m.Index(s.Name)
		if w < 0 || a.Budget != 8000 || len(a.Cells) != 2 {
			t.Fatalf("cell span %+v with attrs %+v", s, a)
		}
		for j, c := range a.Cells {
			if c.Arch != m.Names[j] || c.IPT != m.IPT[w][j] {
				t.Errorf("%s row cell %d = %+v, want %s at %v", s.Name, j, c, m.Names[j], m.IPT[w][j])
			}
		}
	}
	if rows != len(profs) {
		t.Errorf("%d cell spans, want one per row (%d)", rows, len(profs))
	}
}
