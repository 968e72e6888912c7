// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation. Each bench regenerates its artifact and attaches the headline
// quantity as a custom metric, so `go test -bench . -benchmem` doubles as
// the reproduction driver. EXPERIMENTS.md records paper-vs-measured values.
package xpscalar

import (
	"context"
	"testing"

	"xpscalar/internal/cli"
	"xpscalar/internal/subsetting"
	"xpscalar/internal/telemetry"
)

func mustPaperMatrix(b *testing.B) *Matrix {
	b.Helper()
	m, err := PaperMatrix()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure1Kiviat regenerates the Kiviat characterization of the
// three illustrative workloads α, β, γ.
func BenchmarkFigure1Kiviat(b *testing.B) {
	profiles := IllustrativeProfiles()
	for i := 0; i < b.N; i++ {
		cs := make([]Characteristics, len(profiles))
		for j, p := range profiles {
			c, err := Characterize(p, 30_000)
			if err != nil {
				b.Fatal(err)
			}
			cs[j] = c
		}
		ks, err := KiviatSet(cs)
		if err != nil {
			b.Fatal(err)
		}
		if len(ks) != 3 {
			b.Fatal("expected 3 kiviat plots")
		}
	}
}

// BenchmarkFigure2TimingScenarios regenerates the clock-period / issue-
// queue / L1-sizing coupling scenarios: at each clock, re-fit the issue
// queue and L1 cache to their stage budgets and evaluate the workload.
func BenchmarkFigure2TimingScenarios(b *testing.B) {
	t := DefaultTech()
	gzip, _ := WorkloadByName("gzip")
	clocks := []float64{0.66, 1.0} // the figure's illustrative periods, ns
	for i := 0; i < b.N; i++ {
		for _, clock := range clocks {
			cfg := InitialConfig(t)
			cfg.ClockNs = clock
			cfg.FrontEndStages = FrontEndStages(clock, t)
			cfg.MemCycles = MemoryCycles(clock, t)
			cfg.IQSize = FitIQ(clock, cfg.SchedDepth, cfg.Width, t)
			cfg.ROBSize = FitROB(clock, cfg.SchedDepth, cfg.Width, t)
			if cfg.IQSize > cfg.ROBSize {
				cfg.IQSize = cfg.ROBSize
			}
			cfg.L1DLat = 2
			cfg.L1D = MaxCache(clock, cfg.L1DLat, 1, t)
			cfg.L2Lat = 6
			cfg.L2 = MaxCache(clock, cfg.L2Lat, 2, t)
			if _, err := Run(cfg, gzip, 10_000, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4Exploration regenerates one workload's customized
// configuration by simulated annealing (the unit of Table 4; the full table
// is the same work eleven times, run by cmd/xpscalar).
func BenchmarkTable4Exploration(b *testing.B) {
	gzip, _ := WorkloadByName("gzip")
	opt := DefaultExploreOptions(42)
	opt.Iterations = 30
	opt.Chains = 1
	opt.ShortBudget = 4000
	opt.LongBudget = 8000
	ResetEngineStats()
	// A private registry captures the sim-latency histogram for this run
	// without touching the process-wide default.
	reg := telemetry.NewRegistry()
	DefaultSession().EnableTelemetry(reg)
	var last Outcome
	for i := 0; i < b.N; i++ {
		out, err := Explore(context.Background(), gzip, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	if b.N > 0 {
		b.ReportMetric(last.BestIPT, "bestIPT")
		b.ReportMetric(100*EngineStats().HitRate(), "cacheHit%")
		hist := reg.Histogram("xpscalar_sim_seconds", "", nil)
		b.ReportMetric(hist.Quantile(0.5)*1e3, "simP50ms")
		b.ReportMetric(hist.Quantile(0.95)*1e3, "simP95ms")
	}
}

// BenchmarkTable5CrossConfig regenerates a cross-configuration matrix:
// every workload of a four-corner subset on every customized architecture.
func BenchmarkTable5CrossConfig(b *testing.B) {
	t := DefaultTech()
	var profiles []Profile
	for _, name := range []string{"crafty", "gzip", "mcf", "twolf"} {
		p, _ := WorkloadByName(name)
		profiles = append(profiles, p)
	}
	opt := DefaultExploreOptions(7)
	opt.Iterations = 25
	opt.Chains = 1
	opt.ShortBudget = 4000
	opt.LongBudget = 8000
	outs, err := ExploreSuite(context.Background(), profiles, opt)
	if err != nil {
		b.Fatal(err)
	}
	configs := make([]Config, len(outs))
	for i, o := range outs {
		configs[i] = o.Best
	}
	// Count only the timed region's evaluation requests: the cross-seeded
	// configurations repeat across columns, so a large share of matrix
	// cells is served from the evaluation engine's cache.
	ResetEngineStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossMatrix(context.Background(), profiles, configs, 10_000, t); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*EngineStats().HitRate(), "cacheHit%")
}

// BenchmarkTable6BestCombos regenerates the best core combinations for 1-4
// cores under all three figures of merit, over the published Table 5.
func BenchmarkTable6BestCombos(b *testing.B) {
	m := mustPaperMatrix(b)
	var har float64
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 4; k++ {
			for _, metric := range []Metric{MetricAvg, MetricHar, MetricCWHar} {
				c, err := m.BestCombination(k, metric, nil)
				if err != nil {
					b.Fatal(err)
				}
				if k == 2 && metric == MetricHar {
					har = c.HarIPT
				}
			}
		}
	}
	b.ReportMetric(har, "har2core") // paper: 1.88 for {gcc, mcf}
}

// BenchmarkFigure4LimitedCores regenerates the per-benchmark IPT series on
// the best available core under the five core sets of Figure 4.
func BenchmarkFigure4LimitedCores(b *testing.B) {
	m := mustPaperMatrix(b)
	for i := 0; i < b.N; i++ {
		single, err := m.BestCombination(1, MetricAvg, nil)
		if err != nil {
			b.Fatal(err)
		}
		twoAvg, _ := m.BestCombination(2, MetricAvg, nil)
		twoHar, _ := m.BestCombination(2, MetricHar, nil)
		twoCW, _ := m.BestCombination(2, MetricCWHar, nil)
		all := make([]int, m.N())
		for j := range all {
			all[j] = j
		}
		for _, sel := range [][]int{single.Archs, twoAvg.Archs, twoHar.Archs, twoCW.Archs, all} {
			if got := m.Assignments(sel); len(got) != m.N() {
				b.Fatal("bad assignment count")
			}
		}
	}
}

// BenchmarkTable7Summary regenerates the dual-core summary: ideal,
// homogeneous, complete-search and surrogate-propagation harmonic IPT.
func BenchmarkTable7Summary(b *testing.B) {
	m := mustPaperMatrix(b)
	var surrHar float64
	for i := 0; i < b.N; i++ {
		all := make([]int, m.N())
		for j := range all {
			all[j] = j
		}
		_ = m.Merit(all, MetricHar, nil)                                // ideal (paper 2.12)
		_ = m.Merit([]int{m.Index("gcc")}, MetricHar, nil)              // homogeneous (paper 1.57)
		if _, err := m.BestCombination(2, MetricHar, nil); err != nil { // complete (paper 1.88)
			b.Fatal(err)
		}
		g, err := GreedySurrogates(m, PolicyFullPropagation, nil)
		if err != nil {
			b.Fatal(err)
		}
		surrHar = g.HarmonicIPT()
	}
	b.ReportMetric(surrHar, "surrogateHar") // paper: 1.74
}

// BenchmarkFigures678Surrogates regenerates the three surrogating-graphs.
func BenchmarkFigures678Surrogates(b *testing.B) {
	m := mustPaperMatrix(b)
	var heads int
	for i := 0; i < b.N; i++ {
		for _, policy := range []Policy{PolicyNoPropagation, PolicyForwardPropagation, PolicyFullPropagation} {
			g, err := GreedySurrogates(m, policy, nil)
			if err != nil {
				b.Fatal(err)
			}
			if policy == PolicyFullPropagation {
				heads = len(g.RemainingArchs())
			}
		}
	}
	b.ReportMetric(float64(heads), "fullPropHeads") // paper: 2 (gzip, twolf)
}

// BenchmarkAppendixASlowdowns regenerates the percentage-slowdown matrix.
func BenchmarkAppendixASlowdowns(b *testing.B) {
	m := mustPaperMatrix(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		s := m.SlowdownMatrix()
		worst = 0
		for w := range s {
			for a := range s[w] {
				if s[w][a] > worst {
					worst = s[w][a]
				}
			}
		}
	}
	b.ReportMetric(worst*100, "worstSlowdown%") // paper: ~79% (crafty on mcf)
}

// BenchmarkSection53SubsettingPitfall regenerates the bzip/gzip case study:
// the reduced-set dual-core pick evaluated over the full workload set.
func BenchmarkSection53SubsettingPitfall(b *testing.B) {
	m := mustPaperMatrix(b)
	var loss float64
	for i := 0; i < b.N; i++ {
		reduced := make([]string, 0, m.N()-1)
		for _, n := range m.Names {
			if n != "gzip" {
				reduced = append(reduced, n)
			}
		}
		sub, err := m.Sub(reduced)
		if err != nil {
			b.Fatal(err)
		}
		pick, err := sub.BestCombination(2, MetricHar, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sel []int
		for _, n := range sub.ArchNames(pick.Archs) {
			sel = append(sel, m.Index(n))
		}
		full, err := m.BestCombination(2, MetricHar, nil)
		if err != nil {
			b.Fatal(err)
		}
		loss = 1 - m.Merit(sel, MetricHar, nil)/full.HarIPT
	}
	b.ReportMetric(loss*100, "pitfall%") // paper: ~0.5%
}

// BenchmarkSection55Multithread regenerates the multiprogrammed contention
// experiment: the complete-search dual-core CMP under a bursty job stream.
func BenchmarkSection55Multithread(b *testing.B) {
	m := mustPaperMatrix(b)
	pick, err := m.BestCombination(2, MetricHar, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := MTSystemFromSelection(m, pick.Archs)
	if err != nil {
		b.Fatal(err)
	}
	arr := MTArrivals{Jobs: 2000, MeanInterarrival: 25, MeanWork: 50, Burstiness: 2, Seed: 3}
	var turn float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err := MTSimulate(context.Background(), sys, arr, NextBestAvailable)
		if err != nil {
			b.Fatal(err)
		}
		turn = met.AvgTurnaround
	}
	b.ReportMetric(turn, "turnaround")
}

// BenchmarkAblationSurrogatePolicies compares the three propagation
// policies' resulting harmonic IPT (the DESIGN.md ablation).
func BenchmarkAblationSurrogatePolicies(b *testing.B) {
	m := mustPaperMatrix(b)
	for _, policy := range []Policy{PolicyNoPropagation, PolicyForwardPropagation, PolicyFullPropagation} {
		b.Run(policy.String(), func(b *testing.B) {
			var har float64
			for i := 0; i < b.N; i++ {
				g, err := GreedySurrogates(m, policy, nil)
				if err != nil {
					b.Fatal(err)
				}
				har = g.HarmonicIPT()
			}
			b.ReportMetric(har, "harIPT")
		})
	}
}

// BenchmarkAblationKMeansNormalization quantifies the Lee & Brooks
// normalization sensitivity: cluster the published Table 4 configuration
// vectors under each normalization and report how many benchmarks change
// cluster relative to min-max.
func BenchmarkAblationKMeansNormalization(b *testing.B) {
	vectors := paperConfigVectors()
	ref, err := subsetting.KMeans(vectors, 3, subsetting.NormMinMax)
	if err != nil {
		b.Fatal(err)
	}
	var moved int
	for i := 0; i < b.N; i++ {
		raw, err := subsetting.KMeans(vectors, 3, subsetting.NormNone)
		if err != nil {
			b.Fatal(err)
		}
		moved = clustersDiffer(ref.Assign, raw.Assign)
	}
	b.ReportMetric(float64(moved), "benchmarksMoved")
}

// BenchmarkAblationWakeupLatency measures the IPC cost of the wakeup
// latency / scheduler depth coupling on a chain-bound workload — the
// interdependency DESIGN.md calls out.
func BenchmarkAblationWakeupLatency(b *testing.B) {
	t := DefaultTech()
	gzip, _ := WorkloadByName("gzip")
	for _, wake := range []int{0, 1, 3} {
		b.Run(map[int]string{0: "wake0", 1: "wake1", 3: "wake3"}[wake], func(b *testing.B) {
			cfg := InitialConfig(t)
			cfg.WakeupMinLat = wake
			var ipc float64
			for i := 0; i < b.N; i++ {
				r, err := Run(cfg, gzip, 20_000, t)
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAnnealChainKernel is the kernel macro-benchmark: one full
// annealing chain on a fresh session per iteration, so the memo cache
// starts cold and every step pays a real simulation. It isolates the
// steady-state evaluate path — trace replay feeding the pipeline kernel —
// that the allocation-free kernel rework targets; `make bench-compare`
// holds it against the parent commit.
func BenchmarkAnnealChainKernel(b *testing.B) {
	gzip, _ := WorkloadByName("gzip")
	opt := DefaultExploreOptions(42)
	opt.Iterations = 30
	opt.Chains = 1
	opt.ShortBudget = 4000
	opt.LongBudget = 8000
	b.ReportAllocs()
	b.ResetTimer()
	var sims uint64
	for i := 0; i < b.N; i++ {
		s := NewSession(SessionOptions{})
		if _, err := s.Explore(context.Background(), gzip, opt); err != nil {
			b.Fatal(err)
		}
		sims = s.Stats().Misses
	}
	b.StopTimer()
	if sims > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sims), "ns/sim")
	}
}

// BenchmarkAnnealLoopCtxCheck pins the cost of the per-iteration
// cancellation point the annealing inner loop now pays: one ctx.Err() call
// on a live (uncancelled) cancellable context. It reports the per-check
// cost as cancelNs and enforces the guard the refactor promised — the
// check adds zero allocations per iteration, so the hot loop's
// allocation-free property survives cancellation-first plumbing.
func BenchmarkAnnealLoopCtxCheck(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "cancelNs")
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Err() }); n != 0 {
		b.Fatalf("ctx.Err() allocates %v per call on the annealing hot path, want 0", n)
	}
}

// paperConfigVectors flattens the published Table 4 configurations into
// clustering feature vectors.
func paperConfigVectors() [][]float64 {
	var out [][]float64
	for _, nc := range cli.PaperTable4Configs() {
		out = append(out, nc.Config.Vector())
	}
	return out
}

// clustersDiffer counts elements whose co-membership relation with element
// 0 differs between two assignments.
func clustersDiffer(a, b []int) int {
	moved := 0
	for i := range a {
		if (a[i] == a[0]) != (b[i] == b[0]) {
			moved++
		}
	}
	return moved
}

// BenchmarkAblationFixedClock reproduces §2.3's criticism of fixed-clock
// exploration: annealing with the clock pinned at the Table 3 period vs the
// full move set, on the same budget. The reported metric is the best IPT
// found; the fixed-clock search forfeits part of the customization payoff.
func BenchmarkAblationFixedClock(b *testing.B) {
	prof, _ := WorkloadByName("bzip")
	base := DefaultExploreOptions(13)
	base.Iterations = 40
	base.Chains = 2
	base.ShortBudget = 5000
	base.LongBudget = 10000
	for _, fixed := range []float64{0, 0.2} {
		name := "full-moves"
		if fixed > 0 {
			name = "fixed-clock-0.2ns"
		}
		b.Run(name, func(b *testing.B) {
			opt := base
			opt.FixedClockNs = fixed
			var ipt float64
			for i := 0; i < b.N; i++ {
				out, err := Explore(context.Background(), prof, opt)
				if err != nil {
					b.Fatal(err)
				}
				ipt = out.BestIPT
			}
			b.ReportMetric(ipt, "bestIPT")
		})
	}
}
