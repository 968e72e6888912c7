package timing

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xpscalar/internal/cacti"
	"xpscalar/internal/tech"
)

// The reference implementations below are the fitting routines as they
// were before the delay table: every delay is a fresh array-model call.
// The table must reproduce them bit for bit.

func refCacheAccessNs(g CacheGeom, t tech.Params) float64 {
	r, err := cacti.Access(cacti.Params{
		LineBytes:  g.BlockBytes,
		Assoc:      g.Assoc,
		Sets:       g.Sets,
		ReadPorts:  2,
		WritePorts: 2,
	}, t)
	if err != nil {
		panic(err)
	}
	return r.AccessNs
}

func refIQDelayNs(size, width int, t tech.Params) float64 {
	wake, err := cacti.Access(cacti.Params{
		LineBytes:  t.IQEntryBytes,
		Sets:       2 * size,
		ReadPorts:  width,
		WritePorts: 0,
		FullyAssoc: true,
		TagBits:    8,
	}, t)
	if err != nil {
		panic(err)
	}
	sel, err := cacti.Access(cacti.Params{
		LineBytes:  t.IQEntryBytes,
		Assoc:      1,
		Sets:       size,
		ReadPorts:  width,
		WritePorts: 0,
	}, t)
	if err != nil {
		panic(err)
	}
	return wake.TagCompareNs + sel.DataPathNoOutputNs
}

func refROBDelayNs(size, width int, t tech.Params) float64 {
	r, err := cacti.Access(cacti.Params{
		LineBytes:  t.IQEntryBytes,
		Assoc:      1,
		Sets:       size,
		ReadPorts:  2 * width,
		WritePorts: width,
	}, t)
	if err != nil {
		panic(err)
	}
	return r.AccessNs
}

func refLSQDelayNs(size int, t tech.Params) float64 {
	r, err := cacti.Access(cacti.Params{
		LineBytes:  t.IQEntryBytes,
		Sets:       size,
		ReadPorts:  2,
		WritePorts: 2,
		FullyAssoc: true,
	}, t)
	if err != nil {
		panic(err)
	}
	return r.DataPathNoOutputNs
}

func refFitIQ(budgetNs float64, width int, t tech.Params) int {
	return refFitPow2(MinIQSize, MaxIQSize, func(size int) float64 {
		return refIQDelayNs(size, width, t)
	}, budgetNs)
}

func refFitROB(budgetNs float64, width int, t tech.Params) int {
	return refFitPow2(MinROBSize, MaxROBSize, func(size int) float64 {
		return refROBDelayNs(size, width, t)
	}, budgetNs)
}

func refFitLSQ(budgetNs float64, t tech.Params) int {
	return refFitPow2(MinLSQSize, MaxLSQSize, func(size int) float64 {
		return refLSQDelayNs(size, t)
	}, budgetNs)
}

func refFitPow2(min, max int, delay func(int) float64, budgetNs float64) int {
	best := 0
	for size := min; size <= max; size <<= 1 {
		if Fits(delay(size), budgetNs) {
			best = size
		} else {
			break
		}
	}
	return best
}

func refFitCacheSets(budgetNs float64, assoc, blockBytes int, level int, t tech.Params) int {
	minBytes, maxBytes := MinL1Bytes, MaxL1Bytes
	if level == 2 {
		minBytes, maxBytes = MinL2Bytes, MaxL2Bytes
	}
	best := 0
	for sets := 16; ; sets <<= 1 {
		g := CacheGeom{Sets: sets, Assoc: assoc, BlockBytes: blockBytes}
		size := g.SizeBytes()
		if size > maxBytes {
			break
		}
		if !Fits(refCacheAccessNs(g, t), budgetNs) {
			break
		}
		if size >= minBytes {
			best = sets
		}
	}
	return best
}

func refCacheCandidates(budgetNs float64, level int, t tech.Params) []CacheGeom {
	minBytes, maxBytes := MinL1Bytes, MaxL1Bytes
	if level == 2 {
		minBytes, maxBytes = MinL2Bytes, MaxL2Bytes
	}
	var out []CacheGeom
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for _, block := range []int{8, 16, 32, 64, 128, 256, 512} {
			var best CacheGeom
			for sets := 16; ; sets <<= 1 {
				g := CacheGeom{Sets: sets, Assoc: assoc, BlockBytes: block}
				if g.SizeBytes() > maxBytes {
					break
				}
				if !Fits(refCacheAccessNs(g, t), budgetNs) {
					break
				}
				if g.SizeBytes() >= minBytes {
					best = g
				}
			}
			if best.Sets > 0 {
				out = append(out, best)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.SizeBytes() > b.SizeBytes() ||
				(a.SizeBytes() == b.SizeBytes() && refCacheAccessNs(a, t) > refCacheAccessNs(b, t)) {
				out[j-1], out[j] = out[j], out[j-1]
			} else {
				break
			}
		}
	}
	return out
}

func refMaxCache(budgetNs float64, level int, t tech.Params) CacheGeom {
	cands := refCacheCandidates(budgetNs, level, t)
	if len(cands) == 0 {
		return CacheGeom{}
	}
	return cands[len(cands)-1]
}

// techsUnderTest are the technologies the bit-identity tests cover: the
// paper's, and a faster process generation.
func techsUnderTest() []tech.Params {
	return []tech.Params{tech.Default(), tech.Default().Scale(0.7)}
}

// sweepBudgets returns the budgets 0.05–6.00ns in 0.01ns steps.
func sweepBudgets() []float64 {
	var bs []float64
	for i := 5; i <= 600; i++ {
		bs = append(bs, float64(i)/100)
	}
	return bs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTableMatchesModel checks every stored delay against a fresh model
// call, bit for bit, and that each row spans its whole range.
func TestTableMatchesModel(t *testing.T) {
	for _, tp := range techsUnderTest() {
		d := tableFor(tp)
		for _, assoc := range cacheAssocs {
			for _, block := range cacheBlocks {
				col := d.column(assoc, block)
				if want := pow2Index(MaxL2Bytes/(assoc*block), minSets) + 1; len(col) != want {
					t.Errorf("%d-way %dB column has %d entries, want %d", assoc, block, len(col), want)
				}
				for k, ns := range col {
					g := CacheGeom{Sets: minSets << k, Assoc: assoc, BlockBytes: block}
					if want := refCacheAccessNs(g, tp); !sameBits(ns, want) {
						t.Errorf("cache %v: table %v, model %v", g, ns, want)
					}
				}
			}
		}
		for w := 1; w <= maxWidth; w++ {
			if len(d.iq[w-1]) != pow2Index(MaxIQSize, MinIQSize)+1 || len(d.rob[w-1]) != pow2Index(MaxROBSize, MinROBSize)+1 {
				t.Errorf("width %d: IQ/ROB rows have %d/%d entries", w, len(d.iq[w-1]), len(d.rob[w-1]))
			}
			for k, ns := range d.iq[w-1] {
				if want := refIQDelayNs(MinIQSize<<k, w, tp); !sameBits(ns, want) {
					t.Errorf("IQ %d w%d: table %v, model %v", MinIQSize<<k, w, ns, want)
				}
			}
			for k, ns := range d.rob[w-1] {
				if want := refROBDelayNs(MinROBSize<<k, w, tp); !sameBits(ns, want) {
					t.Errorf("ROB %d w%d: table %v, model %v", MinROBSize<<k, w, ns, want)
				}
			}
		}
		if len(d.lsq) != pow2Index(MaxLSQSize, MinLSQSize)+1 {
			t.Errorf("LSQ row has %d entries", len(d.lsq))
		}
		for k, ns := range d.lsq {
			if want := refLSQDelayNs(MinLSQSize<<k, tp); !sameBits(ns, want) {
				t.Errorf("LSQ %d: table %v, model %v", MinLSQSize<<k, ns, want)
			}
		}
	}
}

// checkFitsAt compares all six fitting routines with the reference
// implementations at one budget, over both levels and every width. The
// extra associativities and block size are off the cache grid and go to
// the model.
func checkFitsAt(t *testing.T, b float64, tp tech.Params) {
	t.Helper()
	assocs := append(cacheAssocs[:], 3, 32)
	blocks := append(cacheBlocks[:], 1024)
	for level := 1; level <= 2; level++ {
		cands, want := CacheCandidates(b, level, tp), refCacheCandidates(b, level, tp)
		if !reflect.DeepEqual(cands, want) {
			t.Fatalf("CacheCandidates(%v, L%d) = %v, want %v", b, level, cands, want)
		}
		if cap(cands) != len(cands) {
			t.Fatalf("CacheCandidates(%v, L%d) has capacity %d beyond its %d entries", b, level, cap(cands), len(cands))
		}
		if got, want := MaxCache(b, level, tp), refMaxCache(b, level, tp); got != want {
			t.Fatalf("MaxCache(%v, L%d) = %v, want %v", b, level, got, want)
		}
		for _, assoc := range assocs {
			for _, block := range blocks {
				if got, want := FitCacheSets(b, assoc, block, level, tp), refFitCacheSets(b, assoc, block, level, tp); got != want {
					t.Fatalf("FitCacheSets(%v, %d-way, %dB, L%d) = %d, want %d", b, assoc, block, level, got, want)
				}
			}
		}
	}
	for w := 1; w <= maxWidth; w++ {
		if got, want := FitIQ(b, w, tp), refFitIQ(b, w, tp); got != want {
			t.Fatalf("FitIQ(%v, w%d) = %d, want %d", b, w, got, want)
		}
		if got, want := FitROB(b, w, tp), refFitROB(b, w, tp); got != want {
			t.Fatalf("FitROB(%v, w%d) = %d, want %d", b, w, got, want)
		}
	}
	if got, want := FitLSQ(b, tp), refFitLSQ(b, tp); got != want {
		t.Fatalf("FitLSQ(%v) = %d, want %d", b, got, want)
	}
}

// TestFitsMatchReference sweeps the fitting routines against the
// reference implementations over budgets, levels and widths.
func TestFitsMatchReference(t *testing.T) {
	for _, tp := range techsUnderTest() {
		for _, b := range sweepBudgets() {
			checkFitsAt(t, b, tp)
		}
	}
}

// TestFitsAtBoundaries checks the fitting routines where a stored delay d
// starts to fit: at the budget d/FitTolerance, one float64 step below it
// and two above it. A 0.01 ns sweep almost never lands there, and there a
// binary search over the sorted delays would go wrong by one. NaN and
// negative budgets, where nothing fits, ride along.
func TestFitsAtBoundaries(t *testing.T) {
	for _, tp := range techsUnderTest() {
		d := tableFor(tp)
		var delays []float64
		for _, col := range d.cache {
			delays = append(delays, col...)
		}
		for w := range d.iq {
			delays = append(delays, d.iq[w]...)
			delays = append(delays, d.rob[w]...)
		}
		delays = append(delays, d.lsq...)
		budgets := []float64{math.NaN(), -1}
		for _, ns := range delays {
			b := ns / FitTolerance
			up := math.Nextafter(b, math.Inf(1))
			budgets = append(budgets, math.Nextafter(b, math.Inf(-1)), b, up, math.Nextafter(up, math.Inf(1)))
		}
		for _, b := range budgets {
			checkFitsAt(t, b, tp)
		}
		t.Logf("%d budgets around %d stored delays", len(budgets), len(delays))
	}
}

// TestOffGridFallsBackToModel checks inputs the table does not hold.
func TestOffGridFallsBackToModel(t *testing.T) {
	p := tech.Default()
	cases := []struct {
		name      string
		got, want float64
	}{
		{"IQ 48", IQDelayNs(48, 4, p), refIQDelayNs(48, 4, p)},
		{"IQ 512", IQDelayNs(512, 4, p), refIQDelayNs(512, 4, p)},
		{"IQ width 20", IQDelayNs(64, 20, p), refIQDelayNs(64, 20, p)},
		{"ROB 100", ROBDelayNs(100, 4, p), refROBDelayNs(100, 4, p)},
		{"ROB 4096", ROBDelayNs(4096, 4, p), refROBDelayNs(4096, 4, p)},
		{"LSQ 4", LSQDelayNs(4, p), refLSQDelayNs(4, p)},
		{"LSQ 48", LSQDelayNs(48, p), refLSQDelayNs(48, p)},
		{"cache 8 sets", CacheAccessNs(CacheGeom{Sets: 8, Assoc: 2, BlockBytes: 32}, p),
			refCacheAccessNs(CacheGeom{Sets: 8, Assoc: 2, BlockBytes: 32}, p)},
		{"cache 3-way", CacheAccessNs(CacheGeom{Sets: 256, Assoc: 3, BlockBytes: 64}, p),
			refCacheAccessNs(CacheGeom{Sets: 256, Assoc: 3, BlockBytes: 64}, p)},
		{"cache 16M", CacheAccessNs(CacheGeom{Sets: 1 << 15, Assoc: 8, BlockBytes: 64}, p),
			refCacheAccessNs(CacheGeom{Sets: 1 << 15, Assoc: 8, BlockBytes: 64}, p)},
	}
	for _, tc := range cases {
		if !sameBits(tc.got, tc.want) {
			t.Errorf("%s: %v, model %v", tc.name, tc.got, tc.want)
		}
	}
	if got, want := FitIQ(0.5, 20, p), refFitIQ(0.5, 20, p); got != want {
		t.Errorf("FitIQ(0.5, w20) = %d, want %d", got, want)
	}
}

// TestInvalidTechIsNotStored checks that an invalid technology reaches the
// model, which panics with its error as before, and adds no table to the
// memo or its fast path. A NaN field never compares equal; a negative one
// does.
func TestInvalidTechIsNotStored(t *testing.T) {
	nan, negative := tech.Default(), tech.Default()
	nan.FO4Ns, negative.FO4Ns = math.NaN(), -tech.Default().FO4Ns
	count := func() int {
		n := 0
		tables.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	tableFor(tech.Default()) // the fast path holds a valid table
	before, fast := count(), last.Load()
	for _, bad := range []tech.Params{nan, negative} {
		fits := []struct {
			name string
			fit  func()
		}{
			{"FitIQ", func() { FitIQ(0.5, 4, bad) }},
			{"MaxCache", func() { MaxCache(0.5, 1, bad) }},
			{"CacheCandidates", func() { CacheCandidates(3.0, 2, bad) }},
		}
		for _, f := range fits {
			for i := 0; i < 3; i++ {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "FO4") {
							t.Errorf("%s with FO4 %v recovered %v, want the model's FO4 error", f.name, bad.FO4Ns, r)
						}
					}()
					f.fit()
				}()
			}
		}
	}
	if after := count(); after != before {
		t.Errorf("memo grew from %d to %d tables on an invalid technology", before, after)
	}
	if last.Load() != fast {
		t.Error("an invalid technology replaced the fast path's table")
	}
}

// TestMaxCacheTieBreak pins which geometry MaxCache picks when several
// share the largest fitting capacity: the one with the highest access
// time, the last entry of CacheCandidates' ascending order.
func TestMaxCacheTieBreak(t *testing.T) {
	p := tech.Default()
	fitting, ties, slowerPicked := 0, 0, 0
	for _, b := range sweepBudgets() {
		for level := 1; level <= 2; level++ {
			cands := refCacheCandidates(b, level, p)
			got := MaxCache(b, level, p)
			if len(cands) == 0 {
				if got != (CacheGeom{}) {
					t.Errorf("MaxCache(%.2f, L%d) = %v, want zero geometry", b, level, got)
				}
				continue
			}
			fitting++
			var largest []CacheGeom
			for _, g := range cands {
				if g.SizeBytes() == cands[len(cands)-1].SizeBytes() {
					largest = append(largest, g)
				}
			}
			slowest, fastest := largest[0], largest[0]
			for _, g := range largest[1:] {
				if refCacheAccessNs(g, p) >= refCacheAccessNs(slowest, p) {
					slowest = g
				}
				if refCacheAccessNs(g, p) < refCacheAccessNs(fastest, p) {
					fastest = g
				}
			}
			if got != slowest {
				t.Errorf("MaxCache(%.2f, L%d) = %v, want the slowest of the largest %v", b, level, got, slowest)
			}
			if len(largest) > 1 {
				ties++
			}
			if slowest != fastest {
				slowerPicked++
			}
		}
	}
	t.Logf("%d of %d fitting budgets tie in capacity; %d pick a slower geometry than the fastest of the largest",
		ties, fitting, slowerPicked)
	if slowerPicked == 0 {
		t.Error("the sweep never exercises the tie-break")
	}
}

// TestTablesConcurrentFirstBuild races goroutines through the fitting
// routines while the tables they read are first built, and checks every
// answer against the single-goroutine one. Run it under -race.
func TestTablesConcurrentFirstBuild(t *testing.T) {
	type answers struct {
		cands    [2][]CacheGeom
		max      [2]CacheGeom
		iq, rob  [maxWidth]int
		lsq      int
		accessNs float64
	}
	budgets := []float64{0.3, 0.6, 1.2, 3.0}
	compute := func(tp tech.Params, b float64) answers {
		var a answers
		for level := 1; level <= 2; level++ {
			a.cands[level-1], a.max[level-1] = CacheCandidates(b, level, tp), MaxCache(b, level, tp)
		}
		for w := 1; w <= maxWidth; w++ {
			a.iq[w-1], a.rob[w-1] = FitIQ(b, w, tp), FitROB(b, w, tp)
		}
		a.lsq = FitLSQ(b, tp)
		a.accessNs = CacheAccessNs(CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32}, tp)
		return a
	}
	techs := techsUnderTest()
	want := make([][]answers, len(techs))
	for i, tp := range techs {
		for _, b := range budgets {
			want[i] = append(want[i], compute(tp, b))
		}
	}

	// Forget every table, so the goroutines below race to build them.
	forgetTables()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range techs {
				i := (g + n) % len(techs) // half the goroutines start on each technology
				for j, b := range budgets {
					if got := compute(techs[i], b); !reflect.DeepEqual(got, want[i][j]) {
						t.Errorf("goroutine %d, tech %d, budget %.1f: %+v, want %+v", g, i, b, got, want[i][j])
					}
				}
			}
		}()
	}
	wg.Wait()
	if d := last.Load(); d != nil {
		if v, ok := tables.Load(d.tech); !ok || v.(*delayTable) != d {
			t.Error("the fast path holds a table the memo does not")
		}
	}
}

// forgetTables empties the memo and the fast path in front of it, so the
// next call for any technology builds its table afresh.
func forgetTables() {
	tables.Range(func(k, _ any) bool { tables.Delete(k); return true })
	last.Store(nil)
}
