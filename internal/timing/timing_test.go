package timing

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"xpscalar/internal/tech"
)

func TestCacheGeomValidate(t *testing.T) {
	good := CacheGeom{Sets: 1024, Assoc: 2, BlockBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%v) = %v", good, err)
	}
	bad := []CacheGeom{
		{Sets: 0, Assoc: 1, BlockBytes: 32},
		{Sets: 1000, Assoc: 1, BlockBytes: 32}, // not power of two
		{Sets: 64, Assoc: 0, BlockBytes: 32},
		{Sets: 64, Assoc: 1, BlockBytes: 4},  // below CACTI's 8B floor (Table 2)
		{Sets: 64, Assoc: 1, BlockBytes: 48}, // not power of two
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted malformed geometry", g)
		}
	}
}

func TestBudgetMatchesPaperFormula(t *testing.T) {
	p := tech.Default()
	// Paper §3: units scale to fit the product of the clock period and
	// their pipeline depth, minus the aggregate latch latency.
	got := BudgetNs(0.33, 3, p)
	want := 3 * (0.33 - 0.03)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("BudgetNs(0.33, 3) = %v, want %v", got, want)
	}
	if BudgetNs(0.33, 0, p) != 0 {
		t.Errorf("BudgetNs with 0 stages should be 0")
	}
}

func TestFrontEndStagesMatchTable4Pattern(t *testing.T) {
	p := tech.Default()
	// Table 4: the 2ns front end pipelines into 4 stages at 0.49ns and
	// 12–13 at 0.19ns, ~6 at 0.33ns.
	cases := []struct {
		clock    float64
		min, max int
	}{
		{0.49, 4, 5},
		{0.33, 6, 7},
		{0.19, 11, 13},
	}
	for _, tc := range cases {
		got := FrontEndStages(tc.clock, p)
		if got < tc.min || got > tc.max {
			t.Errorf("FrontEndStages(%.2f) = %d, want in [%d,%d]", tc.clock, got, tc.min, tc.max)
		}
	}
}

func TestMemoryCyclesMatchTable4Pattern(t *testing.T) {
	p := tech.Default()
	// Table 4 memory cycle counts correspond to ~54-61ns effective
	// latency: 112@0.49, 172@0.33, 321@0.19 — ours should land within
	// ~15% of those.
	cases := []struct {
		clock float64
		want  int
	}{
		{0.49, 112},
		{0.33, 172},
		{0.19, 321},
	}
	for _, tc := range cases {
		got := MemoryCycles(tc.clock, p)
		lo, hi := int(float64(tc.want)*0.85), int(float64(tc.want)*1.15)
		if got < lo || got > hi {
			t.Errorf("MemoryCycles(%.2f) = %d, want within [%d,%d] (paper %d)", tc.clock, got, lo, hi, tc.want)
		}
	}
}

func TestStagesForCoversDelay(t *testing.T) {
	p := tech.Default()
	for _, delay := range []float64{0.1, 0.5, 1.0, 2.5} {
		for _, clock := range []float64{0.2, 0.33, 0.5} {
			s := StagesFor(delay, clock, p)
			if BudgetNs(clock, s, p) < delay {
				t.Errorf("StagesFor(%.2f, %.2f) = %d stages but budget %.3f < delay",
					delay, clock, s, BudgetNs(clock, s, p))
			}
			if s > 1 && BudgetNs(clock, s-1, p) >= delay {
				t.Errorf("StagesFor(%.2f, %.2f) = %d not minimal", delay, clock, s)
			}
		}
	}
}

func TestFitIQRespectsBudget(t *testing.T) {
	p := tech.Default()
	for _, budget := range []float64{0.3, 0.45, 0.6, 1.0} {
		for _, width := range []int{3, 4, 5, 8} {
			size := FitIQ(budget, width, p)
			if size == 0 {
				continue
			}
			if d := IQDelayNs(size, width, p); !Fits(d, budget) {
				t.Errorf("FitIQ(%.2f, w%d) = %d but delay %.3f > budget", budget, width, size, d)
			}
			if size < MaxIQSize {
				if d := IQDelayNs(size*2, width, p); Fits(d, budget) {
					t.Errorf("FitIQ(%.2f, w%d) = %d not maximal: %d also fits (%.3f)", budget, width, size, size*2, d)
				}
			}
		}
	}
}

func TestFitROBAndLSQRespectBudget(t *testing.T) {
	p := tech.Default()
	for _, budget := range []float64{0.35, 0.5, 0.8, 1.2} {
		if size := FitROB(budget, 4, p); size != 0 {
			if d := ROBDelayNs(size, 4, p); !Fits(d, budget) {
				t.Errorf("FitROB(%.2f) = %d but delay %.3f > budget", budget, size, d)
			}
		}
		if size := FitLSQ(budget, p); size != 0 {
			if d := LSQDelayNs(size, p); !Fits(d, budget) {
				t.Errorf("FitLSQ(%.2f) = %d but delay %.3f > budget", budget, size, d)
			}
		}
	}
}

func TestFitTooTightReturnsZero(t *testing.T) {
	p := tech.Default()
	if got := FitIQ(0.01, 4, p); got != 0 {
		t.Errorf("FitIQ(0.01) = %d, want 0", got)
	}
	if got := FitROB(0.01, 4, p); got != 0 {
		t.Errorf("FitROB(0.01) = %d, want 0", got)
	}
	if got := FitLSQ(0.01, p); got != 0 {
		t.Errorf("FitLSQ(0.01) = %d, want 0", got)
	}
}

func TestWiderMachinesGetSmallerQueues(t *testing.T) {
	p := tech.Default()
	// More issue ports slow the wakeup/select loop, so at a fixed budget
	// a wider machine can afford at most the same IQ — one of the
	// interdependencies the paper's Figure 2 discussion highlights.
	for _, budget := range []float64{0.4, 0.5, 0.7} {
		narrow := FitIQ(budget, 3, p)
		wide := FitIQ(budget, 8, p)
		if wide > narrow {
			t.Errorf("budget %.2f: width-8 IQ %d exceeds width-3 IQ %d", budget, wide, narrow)
		}
	}
}

func TestCacheCandidatesFitAndOrdered(t *testing.T) {
	p := tech.Default()
	for _, level := range []int{1, 2} {
		budget := 0.9
		if level == 2 {
			budget = 3.0
		}
		cands := CacheCandidates(budget, level, p)
		if len(cands) == 0 {
			t.Fatalf("no L%d candidates at %.1fns", level, budget)
		}
		prevSize := 0
		for _, g := range cands {
			if err := g.Validate(); err != nil {
				t.Errorf("candidate %v invalid: %v", g, err)
			}
			if d := CacheAccessNs(g, p); !Fits(d, budget) {
				t.Errorf("L%d candidate %v delay %.3f > budget %.3f", level, g, d, budget)
			}
			if g.SizeBytes() < prevSize {
				t.Errorf("candidates not ordered by capacity: %v after %d bytes", g, prevSize)
			}
			prevSize = g.SizeBytes()
		}
	}
}

func TestMaxCacheGrowsWithBudget(t *testing.T) {
	p := tech.Default()
	small := MaxCache(0.6, 1, p)
	big := MaxCache(1.2, 1, p)
	if small.Sets == 0 || big.Sets == 0 {
		t.Fatalf("MaxCache returned empty geometry: %v / %v", small, big)
	}
	if big.SizeBytes() < small.SizeBytes() {
		t.Errorf("larger budget produced smaller cache: %v vs %v", big, small)
	}
}

func TestMaxCacheImpossibleBudget(t *testing.T) {
	p := tech.Default()
	if g := MaxCache(0.01, 1, p); g.Sets != 0 {
		t.Errorf("MaxCache(0.01ns) = %v, want zero geometry", g)
	}
}

// TestQuickFitNeverExceedsBudget property-checks the whole fitting layer.
func TestQuickFitNeverExceedsBudget(t *testing.T) {
	p := tech.Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 0.2 + rng.Float64()*1.5
		width := 3 + rng.Intn(6)
		if size := FitIQ(budget, width, p); size != 0 && !Fits(IQDelayNs(size, width, p), budget) {
			return false
		}
		if size := FitROB(budget, width, p); size != 0 && !Fits(ROBDelayNs(size, width, p), budget) {
			return false
		}
		if size := FitLSQ(budget, p); size != 0 && !Fits(LSQDelayNs(size, p), budget) {
			return false
		}
		level := 1 + rng.Intn(2)
		if g := MaxCache(budget*3, level, p); g.Sets != 0 && !Fits(CacheAccessNs(g, p), budget*3) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFitsDoNotAllocate gates the routines annealing calls after every
// move at zero allocations once the technology's table is built.
// CacheCandidates returns a list shared by every caller at the same cut,
// built on its first use, which AllocsPerRun's warm-up call makes.
func TestFitsDoNotAllocate(t *testing.T) {
	p := tech.Default()
	g := CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32}
	fits := []struct {
		name string
		fit  func()
	}{
		{"CacheCandidates", func() { CacheCandidates(1.0, 1, p) }},
		{"MaxCache", func() { MaxCache(3.0, 2, p) }},
		{"FitIQ", func() { FitIQ(0.6, 4, p) }},
		{"FitROB", func() { FitROB(0.6, 4, p) }},
		{"FitLSQ", func() { FitLSQ(0.6, p) }},
		{"CacheAccessNs", func() { CacheAccessNs(g, p) }},
	}
	for _, f := range fits {
		if n := testing.AllocsPerRun(100, f.fit); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", f.name, n)
		}
	}
}

// TestBuildTableMemory bounds what one technology's table costs to build,
// fit indexes included, at 128 KB.
func TestBuildTableMemory(t *testing.T) {
	const limit = 128 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildTable(tech.Default())
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Errorf("building a table allocated %d bytes, want at most %d", n, limit)
	}
}

func BenchmarkBuildTable(b *testing.B) {
	p := tech.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildTable(p)
	}
}

func BenchmarkMaxCache(b *testing.B) {
	p := tech.Default()
	for i := 0; i < b.N; i++ {
		MaxCache(1.0, 1, p)
	}
}

func BenchmarkCacheCandidates(b *testing.B) {
	p := tech.Default()
	for i := 0; i < b.N; i++ {
		CacheCandidates(1.0, 1, p)
	}
}

func BenchmarkFitROB(b *testing.B) {
	p := tech.Default()
	for i := 0; i < b.N; i++ {
		FitROB(0.6, 4, p)
	}
}
