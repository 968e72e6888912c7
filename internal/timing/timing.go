// Package timing derives the access latency of each superscalar
// architectural unit from the array model, following the paper's Table 1
// mapping, and implements the fit-to-clock sizing discipline at the heart of
// the exploration loop: after the clock period or a unit's pipeline depth
// changes, every unit is rescaled so its access time fits within the product
// of the clock period and its assigned stage count, minus the aggregate
// latch latency (paper §3, Figure 2).
package timing

import (
	"fmt"
	"math"

	"xpscalar/internal/tech"
)

// CacheGeom describes the geometry of one cache level.
type CacheGeom struct {
	Sets       int // power of two
	Assoc      int // ways
	BlockBytes int // line size
}

// SizeBytes returns the cache capacity.
func (g CacheGeom) SizeBytes() int { return g.Sets * g.Assoc * g.BlockBytes }

// Validate reports whether the geometry is well formed.
func (g CacheGeom) Validate() error {
	switch {
	case g.Sets <= 0 || g.Sets&(g.Sets-1) != 0:
		return fmt.Errorf("timing: cache sets %d must be a positive power of two", g.Sets)
	case g.Assoc <= 0:
		return fmt.Errorf("timing: cache associativity %d must be positive", g.Assoc)
	case g.BlockBytes < 8 || g.BlockBytes&(g.BlockBytes-1) != 0:
		return fmt.Errorf("timing: cache block %dB must be a power of two >= 8", g.BlockBytes)
	}
	return nil
}

func (g CacheGeom) String() string {
	return fmt.Sprintf("%dsets/%dway/%dB (%s)", g.Sets, g.Assoc, g.BlockBytes, fmtSize(g.SizeBytes()))
}

func fmtSize(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Structure size bounds used by the fitting routines. They bracket the
// paper's observed customization ranges (Table 4) with headroom on both
// sides so the explorer, not the bounds, decides the optimum.
const (
	MinIQSize  = 8
	MaxIQSize  = 256
	MinROBSize = 16
	MaxROBSize = 2048
	MinLSQSize = 8
	MaxLSQSize = 512

	MinL1Bytes = 4 << 10
	MaxL1Bytes = 512 << 10
	MinL2Bytes = 64 << 10
	MaxL2Bytes = 8 << 20
)

// CacheAccessNs returns the access time of a cache with the given geometry.
// Per Table 1, caches are modelled with 2 read and 2 write ports and the
// "Access time" output component is used.
func CacheAccessNs(g CacheGeom, t tech.Params) float64 {
	return tableFor(t).cacheNs(g, t)
}

// IQDelayNs returns the wakeup+select delay of an issue queue with the given
// entry count and issue width. Per Table 1, wakeup is the tag-comparison
// component of a fully-associative array with 2×size entries of 8 bytes and
// issue-width read ports, and select is the total data path without output
// driver of a direct-mapped array with size sets and issue-width read ports.
func IQDelayNs(size, width int, t tech.Params) float64 {
	return tableFor(t).iqNs(size, width, t)
}

// ROBDelayNs returns the access time of the register file / ROB with the
// given entry count and machine width. Per Table 1 it is a direct-mapped
// array of 8-byte entries with 2×width read ports and width write ports.
func ROBDelayNs(size, width int, t tech.Params) float64 {
	return tableFor(t).robNs(size, width, t)
}

// LSQDelayNs returns the search delay of a load-store queue with the given
// entry count. Per Table 1 it is the total data path without output driver
// of a fully-associative array with 2 read and 2 write ports.
func LSQDelayNs(size int, t tech.Params) float64 {
	return tableFor(t).lsqNs(size, t)
}

// BudgetNs returns the usable propagation time for a unit pipelined across
// the given number of stages at the given clock period: the product of the
// clock period and the pipeline depth, minus the aggregate latch latency
// (paper §3).
func BudgetNs(clockNs float64, stages int, t tech.Params) float64 {
	if stages <= 0 {
		return 0
	}
	return float64(stages) * (clockNs - t.LatchLatencyNs)
}

// FitTolerance is the timing margin the fit discipline allows: a unit whose
// access time exceeds its stage budget by no more than this factor still
// fits. It absorbs the granularity of the analytical array model, the same
// way the paper's configurations round the front-end stage division.
const FitTolerance = 1.02

// Fits reports whether a delay fits a stage budget within FitTolerance.
func Fits(delayNs, budgetNs float64) bool {
	return delayNs <= budgetNs*FitTolerance
}

// StagesFor returns the minimum number of pipeline stages needed to cover a
// propagation delay at the given clock period, accounting for per-stage
// latch overhead. It returns at least 1.
func StagesFor(delayNs, clockNs float64, t tech.Params) int {
	usable := clockNs - t.LatchLatencyNs
	if usable <= 0 {
		return math.MaxInt32
	}
	s := int(math.Ceil(delayNs / usable))
	if s < 1 {
		s = 1
	}
	return s
}

// FrontEndStages returns the pipeline depth of the in-order front end
// (fetch, decode, rename): the fixed front-end latency of the technology
// divided across clock periods (Table 2's 2ns front end produces the 4–12
// stage range of Table 4). The paper's configurations round this division
// to the nearest stage (Table 3 pairs a 0.33ns clock with 6 stages), so a
// 15% under-coverage of the final stage is tolerated rather than ceiling'd.
func FrontEndStages(clockNs float64, t tech.Params) int {
	if clockNs <= 0 {
		return math.MaxInt32
	}
	s := int(math.Ceil(t.FrontEndLatencyNs/clockNs - 0.15))
	if s < 2 {
		s = 2
	}
	return s
}

// MemoryCycles returns the number of clock cycles of a main-memory access.
// A fixed controller/row overhead is added to the raw DRAM latency; the
// paper's per-configuration memory cycle counts (Table 4) correspond to an
// effective latency of 54–61ns against the 50ns parameter.
func MemoryCycles(clockNs float64, t tech.Params) int {
	const controllerOverheadNs = 6.0
	return int(math.Ceil((t.MemoryLatencyNs + controllerOverheadNs) / clockNs))
}

// FitIQ returns the largest power-of-two issue-queue size in
// [MinIQSize, MaxIQSize] whose wakeup+select delay fits the budget, or 0 if
// even the minimum does not fit.
func FitIQ(budgetNs float64, width int, t tech.Params) int {
	d := tableFor(t)
	return fitPow2(MinIQSize, MaxIQSize, func(size int) float64 {
		return d.iqNs(size, width, t)
	}, budgetNs)
}

// FitROB returns the largest power-of-two ROB / register-file size in
// [MinROBSize, MaxROBSize] whose access fits the budget, or 0.
func FitROB(budgetNs float64, width int, t tech.Params) int {
	d := tableFor(t)
	return fitPow2(MinROBSize, MaxROBSize, func(size int) float64 {
		return d.robNs(size, width, t)
	}, budgetNs)
}

// FitLSQ returns the largest power-of-two LSQ size in
// [MinLSQSize, MaxLSQSize] whose search fits the budget, or 0.
func FitLSQ(budgetNs float64, t tech.Params) int {
	d := tableFor(t)
	return fitPow2(MinLSQSize, MaxLSQSize, func(size int) float64 {
		return d.lsqNs(size, t)
	}, budgetNs)
}

func fitPow2(min, max int, delay func(int) float64, budgetNs float64) int {
	best := 0
	for size := min; size <= max; size <<= 1 {
		if Fits(delay(size), budgetNs) {
			best = size
		} else {
			break // delay is monotone in size
		}
	}
	return best
}

// levelBytes returns the capacity bounds of cache level 1 or 2; any level
// other than 2 gets the L1 bounds.
func levelBytes(level int) (minBytes, maxBytes int) {
	if level == 2 {
		return MinL2Bytes, MaxL2Bytes
	}
	return MinL1Bytes, MaxL1Bytes
}

// FitCacheSets returns the largest power-of-two set count within the level's
// capacity bounds for which a cache with the given block size and
// associativity fits the budget, or 0 if none fits.
func FitCacheSets(budgetNs float64, assoc, blockBytes int, level int, t tech.Params) int {
	minBytes, maxBytes := levelBytes(level)
	return tableFor(t).fitSets(budgetNs, assoc, blockBytes, minBytes, maxBytes, t)
}

// cacheAssocs and cacheBlocks bound the geometry alternatives considered by
// the fitting search; they match the ranges observed in the paper's Table 4.
var (
	cacheAssocs = [...]int{1, 2, 4, 8, 16}
	cacheBlocks = [...]int{8, 16, 32, 64, 128, 256, 512}
)

// cacheCand is a fitting cache geometry and its access time.
type cacheCand struct {
	g  CacheGeom
	ns float64
}

// CacheCandidates returns every geometry within the level's capacity bounds
// whose access time fits the budget: for each associativity × block size
// pair, the largest power-of-two set count that fits, found by scanning up
// from the smallest and stopping at the first that does not. The result is
// never huge (a few dozen entries) and is ordered by increasing capacity
// then access time, so the last element is the largest fitting cache.
//
// The slice is shared by every caller that asks at an equivalent budget and
// must not be modified. Its capacity is its length, so appending to it
// copies.
func CacheCandidates(budgetNs float64, level int, t tech.Params) []CacheGeom {
	d := tableFor(t)
	ix := d.index(level, t)
	return ix.candidates(d, ix.cut(budgetNs))
}

// MaxCache returns the fitting geometry with the greatest capacity, or a
// zero geometry if nothing fits. It is the last element of CacheCandidates,
// so ties in capacity go to the higher access time, and among equal access
// times to the later geometry in cacheAssocs-major order.
func MaxCache(budgetNs float64, level int, t tech.Params) CacheGeom {
	ix := tableFor(t).index(level, t)
	return ix.max[ix.cut(budgetNs)]
}

// sortsAfter reports whether a belongs after b in CacheCandidates order.
func sortsAfter(a, b cacheCand) bool {
	return a.g.SizeBytes() > b.g.SizeBytes() ||
		(a.g.SizeBytes() == b.g.SizeBytes() && a.ns > b.ns)
}

func sortGeoms(cs []cacheCand) {
	// Insertion sort: the slices are tiny. It is stable: the fit index
	// picks MaxCache's answer as the element it would leave last, without
	// sorting.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && sortsAfter(cs[j-1], cs[j]); j-- {
			cs[j-1], cs[j] = cs[j], cs[j-1]
		}
	}
}
