package timing

import (
	"math/bits"
	"sync"

	"xpscalar/internal/cacti"
	"xpscalar/internal/tech"
)

// The fitting routines ask the array model for the same few hundred grid
// points after every annealing move. A delayTable holds those answers for
// one technology, computed once by the model functions below, which stay the
// single source of truth: every stored value is the float64 they return, so
// reading the table instead of re-running the model changes no result.
// Inputs off the grid (a non-power-of-two size, a width beyond maxWidth, an
// associativity or block size the cache search never tries) and invalid
// technologies go to the model directly.

const (
	maxWidth = 16 // the widest machine sim.Config admits
	minSets  = 16 // the smallest set count the cache fits try
)

// delayTable holds the Table 1 delays of one technology. Each row is
// indexed by log2(size/smallest size in the row).
type delayTable struct {
	// cache holds access times per associativity and block size, for every
	// power-of-two set count from minSets up to MaxL2Bytes of capacity
	// (MaxL2Bytes bounds both levels).
	cache [len(cacheAssocs)][len(cacheBlocks)][]float64
	// iq and rob hold one row per width 1..maxWidth, over
	// [MinIQSize, MaxIQSize] and [MinROBSize, MaxROBSize].
	iq, rob [maxWidth][]float64
	// lsq spans [MinLSQSize, MaxLSQSize].
	lsq []float64
}

// tables memoizes the delay table of each valid technology, keyed by the
// tech.Params value. Production passes only tech.Default(), so it holds one
// entry. A stored table is never modified.
var tables sync.Map

// noTable is the empty table an invalid technology reads: every lookup
// misses, so the model runs and reports the technology's error as before.
var noTable delayTable

// tableFor returns the delay table of t, building it on first use. Two
// goroutines may both build a table for a new technology; they compute the
// same values, and the first one stored is kept.
func tableFor(t tech.Params) *delayTable {
	if d, ok := tables.Load(t); ok {
		return d.(*delayTable)
	}
	if t.Validate() != nil {
		return &noTable
	}
	d, _ := tables.LoadOrStore(t, buildTable(t))
	return d.(*delayTable)
}

func buildTable(t tech.Params) *delayTable {
	d := new(delayTable)
	for ai, assoc := range cacheAssocs {
		for bi, block := range cacheBlocks {
			d.cache[ai][bi] = pow2Row(minSets, MaxL2Bytes/(assoc*block), func(sets int) float64 {
				return cacheModelNs(CacheGeom{Sets: sets, Assoc: assoc, BlockBytes: block}, t)
			})
		}
	}
	for w := 1; w <= maxWidth; w++ {
		d.iq[w-1] = pow2Row(MinIQSize, MaxIQSize, func(size int) float64 { return iqModelNs(size, w, t) })
		d.rob[w-1] = pow2Row(MinROBSize, MaxROBSize, func(size int) float64 { return robModelNs(size, w, t) })
	}
	d.lsq = pow2Row(MinLSQSize, MaxLSQSize, func(size int) float64 { return lsqModelNs(size, t) })
	return d
}

// pow2Row evaluates delay at every power of two from min to max.
func pow2Row(min, max int, delay func(size int) float64) []float64 {
	var row []float64
	for size := min; size <= max; size <<= 1 {
		row = append(row, delay(size))
	}
	return row
}

// pow2Index returns log2(n/min) when n is a power of two no smaller than
// min (itself a power of two), and -1 otherwise.
func pow2Index(n, min int) int {
	if n < min || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n)) - bits.TrailingZeros(uint(min))
}

// at returns row[k] when k indexes row.
func at(row []float64, k int) (float64, bool) {
	if k < 0 || k >= len(row) {
		return 0, false
	}
	return row[k], true
}

// column returns the access times of the caches with the given
// associativity and block size, indexed by log2(sets/minSets), or nil when
// the pair is off the grid.
func (d *delayTable) column(assoc, block int) []float64 {
	for ai, a := range cacheAssocs {
		if a != assoc {
			continue
		}
		for bi, b := range cacheBlocks {
			if b == block {
				return d.cache[ai][bi]
			}
		}
	}
	return nil
}

func (d *delayTable) cacheNs(g CacheGeom, t tech.Params) float64 {
	if ns, ok := at(d.column(g.Assoc, g.BlockBytes), pow2Index(g.Sets, minSets)); ok {
		return ns
	}
	return cacheModelNs(g, t)
}

func (d *delayTable) iqNs(size, width int, t tech.Params) float64 {
	if width >= 1 && width <= maxWidth {
		if ns, ok := at(d.iq[width-1], pow2Index(size, MinIQSize)); ok {
			return ns
		}
	}
	return iqModelNs(size, width, t)
}

func (d *delayTable) robNs(size, width int, t tech.Params) float64 {
	if width >= 1 && width <= maxWidth {
		if ns, ok := at(d.rob[width-1], pow2Index(size, MinROBSize)); ok {
			return ns
		}
	}
	return robModelNs(size, width, t)
}

func (d *delayTable) lsqNs(size int, t tech.Params) float64 {
	if ns, ok := at(d.lsq, pow2Index(size, MinLSQSize)); ok {
		return ns
	}
	return lsqModelNs(size, t)
}

// fitSets returns the cache with the largest power-of-two set count, from
// minSets up, that fits both [minBytes, maxBytes] and the budget, with its
// access time; the zero cacheCand when none does. The scan stops at the
// first set count that does not fit.
func (d *delayTable) fitSets(budgetNs float64, assoc, block, minBytes, maxBytes int, t tech.Params) cacheCand {
	col := d.column(assoc, block)
	var best cacheCand
	for k, sets := 0, minSets; ; k, sets = k+1, sets<<1 {
		g := CacheGeom{Sets: sets, Assoc: assoc, BlockBytes: block}
		if g.SizeBytes() > maxBytes {
			break
		}
		ns, ok := at(col, k)
		if !ok {
			ns = cacheModelNs(g, t)
		}
		if !Fits(ns, budgetNs) {
			break
		}
		if g.SizeBytes() >= minBytes {
			best = cacheCand{g, ns}
		}
	}
	return best
}

// cacheModelNs, iqModelNs, robModelNs and lsqModelNs run the array model
// for one Table 1 unit; CacheAccessNs, IQDelayNs, ROBDelayNs and LSQDelayNs
// document the mapping. They panic on malformed input, which callers rule
// out by validating geometries and technologies first.

func cacheModelNs(g CacheGeom, t tech.Params) float64 {
	r, err := cacti.Access(cacti.Params{
		LineBytes:  g.BlockBytes,
		Assoc:      g.Assoc,
		Sets:       g.Sets,
		ReadPorts:  2,
		WritePorts: 2,
	}, t)
	if err != nil {
		panic(err) // geometry validated by callers
	}
	return r.AccessNs
}

func iqModelNs(size, width int, t tech.Params) float64 {
	wake, err := cacti.Access(cacti.Params{
		LineBytes:  t.IQEntryBytes,
		Sets:       2 * size,
		ReadPorts:  width,
		WritePorts: 0,
		FullyAssoc: true,
		TagBits:    8, // physical register tags, not address tags
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

func robModelNs(size, width int, t tech.Params) float64 {
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

func lsqModelNs(size int, t tech.Params) float64 {
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
