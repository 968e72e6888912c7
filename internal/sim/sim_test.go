package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

func TestInitialConfigMatchesTable3(t *testing.T) {
	tp := tech.Default()
	c := InitialConfig(tp)
	// Paper Table 3 values.
	if c.ClockNs != 0.33 {
		t.Errorf("clock = %v, want 0.33", c.ClockNs)
	}
	if c.Width != 3 {
		t.Errorf("width = %d, want 3", c.Width)
	}
	if c.FrontEndStages != 6 {
		t.Errorf("front end = %d, want 6", c.FrontEndStages)
	}
	if c.ROBSize != 128 || c.IQSize != 64 || c.LSQSize != 64 {
		t.Errorf("ROB/IQ/LSQ = %d/%d/%d, want 128/64/64", c.ROBSize, c.IQSize, c.LSQSize)
	}
	if c.SchedDepth != 1 || c.LSQDepth != 2 || c.WakeupMinLat != 1 {
		t.Errorf("sched/lsq/wakeup = %d/%d/%d, want 1/2/1", c.SchedDepth, c.LSQDepth, c.WakeupMinLat)
	}
	if c.L1DLat != 4 || c.L2Lat != 12 {
		t.Errorf("L1/L2 latency = %d/%d, want 4/12", c.L1DLat, c.L2Lat)
	}
	// Table 3 pairs a 0.33ns clock with 172 memory cycles; ours must land
	// nearby (the paper's effective memory latency is ~57ns).
	if c.MemCycles < 150 || c.MemCycles > 195 {
		t.Errorf("memory cycles = %d, want ~172", c.MemCycles)
	}
	if err := c.Validate(tp); err != nil {
		t.Fatalf("initial config must validate: %v", err)
	}
}

func TestValidateEnforcesFitDiscipline(t *testing.T) {
	tp := tech.Default()
	base := InitialConfig(tp)

	cases := []struct {
		name   string
		mutate func(*Config)
		errSub string
	}{
		{"clock below tech floor", func(c *Config) { c.ClockNs = 0.01 }, "below technology minimum"},
		{"front end too shallow", func(c *Config) { c.FrontEndStages = 2 }, "front end"},
		{"IQ cannot fit budget", func(c *Config) { c.IQSize = 256; c.ROBSize = 256 }, "wakeup+select"},
		{"ROB cannot fit budget", func(c *Config) { c.ROBSize = 2048; c.ClockNs = 0.33 }, "ROB"},
		{"LSQ cannot fit budget", func(c *Config) { c.LSQSize = 512; c.LSQDepth = 1 }, "LSQ"},
		{"L1 too big for latency", func(c *Config) {
			c.L1D = timing.CacheGeom{Sets: 1024, Assoc: 8, BlockBytes: 64} // 512K, within MaxL1Bytes
			c.L1DLat = 1
		}, "L1D"},
		{"L2 too big for latency", func(c *Config) {
			c.L2 = timing.CacheGeom{Sets: 8192, Assoc: 16, BlockBytes: 64} // 8M, within MaxL2Bytes
			c.L2Lat = 4
		}, "L2"},
		// At a slow enough clock every budget fits, so only the size
		// limits stop a geometry no simulation could allocate.
		{"infinite clock", func(c *Config) { c.ClockNs = math.Inf(1) }, "not finite"},
		{"NaN clock", func(c *Config) { c.ClockNs = math.NaN() }, "not finite"},
		{"huge L2 at a slow clock", func(c *Config) {
			c.ClockNs = 1e6
			c.L2 = timing.CacheGeom{Sets: 1 << 34, Assoc: 1, BlockBytes: 8} // 128 GiB
		}, "L2 of 17179869184 sets"},
		{"L1 above its limit at a slow clock", func(c *Config) {
			c.ClockNs = 1e6
			c.L1D = timing.CacheGeom{Sets: 2048, Assoc: 8, BlockBytes: 64} // 1M
		}, "above the 524288B limit"},
		{"geometry whose capacity overflows", func(c *Config) {
			c.ClockNs = 1e6
			// 2 x (2^60+1) x 8 bytes wraps to 16 in an int.
			c.L1D = timing.CacheGeom{Sets: 2, Assoc: 1<<60 + 1, BlockBytes: 8}
		}, "L1D of 2 sets"},
		{"wakeup below sched depth", func(c *Config) { c.SchedDepth = 3; c.WakeupMinLat = 0 }, "wakeup"},
		{"unordered latencies", func(c *Config) { c.L2Lat = 2 }, "ordered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			err := c.Validate(tp)
			if err == nil {
				t.Fatalf("Validate accepted %v", c)
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("error %q does not mention %q", err, tc.errSub)
			}
		})
	}
}

func TestIPTDefinition(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("gzip")
	r, err := Run(cfg, prof, 20000, tp)
	if err != nil {
		t.Fatal(err)
	}
	want := r.IPC() / cfg.ClockNs
	if got := r.IPT(); got != want {
		t.Errorf("IPT = %v, want IPC/clock = %v", got, want)
	}
	if r.IPT() <= 0 {
		t.Error("IPT must be positive")
	}
}

func TestRunDeterministic(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("twolf")
	a, err := Run(cfg, prof, 15000, tp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, prof, 15000, tp)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPT() != b.IPT() || a.Cycles != b.Cycles {
		t.Errorf("Run not deterministic: %v vs %v cycles", a.Cycles, b.Cycles)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	cfg.IQSize = 0
	prof, _ := workload.ByName("gcc")
	if _, err := Run(cfg, prof, 1000, tp); err == nil {
		t.Error("Run accepted an invalid config")
	}
}

func TestRunRejectsInvalidTech(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	_, err := Run(InitialConfig(tech.Default()), prof, 1000, tech.Params{})
	if err == nil || !strings.HasPrefix(err.Error(), "sim: tech:") {
		t.Errorf("Run with the zero technology: err = %v, want a sim: tech: error", err)
	}
}

func TestSuiteSpreadsUnderInitialConfig(t *testing.T) {
	// The whole point of heterogeneity: on one fixed configuration,
	// workloads must differ widely. mcf (memory-bound by construction)
	// must trail the fastest workload by a large factor — the paper's
	// Table 5 shows ~3.5x between mcf and the best diagonal entries.
	tp := tech.Default()
	cfg := InitialConfig(tp)
	ipts := map[string]float64{}
	for _, name := range []string{"mcf", "crafty", "vortex"} {
		prof, _ := workload.ByName(name)
		r, err := Run(cfg, prof, 30000, tp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ipts[name] = r.IPT()
	}
	if ipts["crafty"] < 3*ipts["mcf"] {
		t.Errorf("crafty IPT %.2f should be >= 3x mcf %.2f on a general-purpose config",
			ipts["crafty"], ipts["mcf"])
	}
	if ipts["vortex"] < 2*ipts["mcf"] {
		t.Errorf("vortex IPT %.2f should be >= 2x mcf %.2f", ipts["vortex"], ipts["mcf"])
	}
}

func TestConfigVectorShape(t *testing.T) {
	tp := tech.Default()
	c := InitialConfig(tp)
	v := c.Vector()
	if len(v) != 12 {
		t.Fatalf("vector length %d, want 12, one per parameter", len(v))
	}
	if v[0] != c.ClockNs || v[1] != float64(c.Width) {
		t.Errorf("vector prefix %v does not encode clock/width", v[:2])
	}
}

func TestStringMentionsKeyFields(t *testing.T) {
	tp := tech.Default()
	s := InitialConfig(tp).String()
	for _, sub := range []string{"clk=0.33", "w=3", "rob=128", "iq=64"} {
		if !strings.Contains(s, sub) {
			t.Errorf("String() = %q missing %q", s, sub)
		}
	}
}

func TestRunSourceMatchesRunOnSameStream(t *testing.T) {
	// A captured trace replayed through RunSource must produce exactly
	// the result of Run on the originating profile — the seam that lets
	// real traces replace the synthetic generators.
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("gcc")
	const n = 10000

	direct, err := Run(cfg, prof, n, tp)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunSource(cfg, tr, "gcc-trace", n, tp)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != replayed.Cycles || direct.IPC() != replayed.IPC() {
		t.Errorf("trace replay diverges: %d vs %d cycles", direct.Cycles, replayed.Cycles)
	}
	if replayed.Workload != "gcc-trace" {
		t.Errorf("workload name = %q", replayed.Workload)
	}
}

func BenchmarkRunInitialConfigGzip20k(b *testing.B) {
	tp := tech.Default()
	cfg := InitialConfig(tp)
	prof, _ := workload.ByName("gzip")
	const n = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, prof, n, tp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/instr")
}
