package timing

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
// technologies go to the model directly. Each table also indexes its cache
// columns per level (fitIndex), so MaxCache and CacheCandidates are one
// binary search instead of a scan of every column.

const (
	maxWidth = 16 // the widest machine sim.Config admits
	minSets  = 16 // the smallest set count the cache fits try
	// numCols counts the associativity × block size pairs the cache fits
	// try; column c has associativity cacheAssocs[c/len(cacheBlocks)] and
	// block size cacheBlocks[c%len(cacheBlocks)], in cacheAssocs-major order.
	numCols = len(cacheAssocs) * len(cacheBlocks)
)

// delayTable holds the Table 1 delays of one technology. Each row is
// indexed by log2(size/smallest size in the row). A table records the
// technology it was built for, which tableFor's fast path compares.
type delayTable struct {
	tech tech.Params
	// cache holds access times per column, for every power-of-two set
	// count from minSets up to MaxL2Bytes of capacity (MaxL2Bytes bounds
	// both levels).
	cache [numCols][]float64
	// iq and rob hold one row per width 1..maxWidth, over
	// [MinIQSize, MaxIQSize] and [MinROBSize, MaxROBSize].
	iq, rob [maxWidth][]float64
	// lsq spans [MinLSQSize, MaxLSQSize].
	lsq []float64
	// fit indexes the columns for MaxCache and CacheCandidates: fit[0]
	// for L1, fit[1] for L2.
	fit [2]fitIndex
}

// tables memoizes the delay table of each valid technology, keyed by the
// tech.Params value. Production passes only tech.Default(), so it holds one
// entry. A stored table is only ever extended by CacheCandidates' lists.
var tables sync.Map

// last is tableFor's fast path: the table it last returned from tables.
// Comparing a Params value is far cheaper than hashing it as a map key,
// and annealing asks for the same technology every time.
var last atomic.Pointer[delayTable]

// noTable is the empty table an invalid technology reads: every lookup
// misses, so the model runs and reports the technology's error as before.
var noTable delayTable

// tableFor returns the delay table of t, building it on first use. Two
// goroutines may both build a table for a new technology; they compute the
// same values, and the first one stored is kept. An invalid technology
// reaches neither the memo nor the fast path.
func tableFor(t tech.Params) *delayTable {
	if d := last.Load(); d != nil && d.tech == t {
		return d
	}
	v, ok := tables.Load(t)
	if !ok {
		if t.Validate() != nil {
			return &noTable
		}
		v, _ = tables.LoadOrStore(t, buildTable(t))
	}
	d := v.(*delayTable)
	last.Store(d)
	return d
}

func buildTable(t tech.Params) *delayTable {
	d := &delayTable{tech: t}
	for c := range d.cache {
		g := colGeom(c, 0)
		d.cache[c] = pow2Row(minSets, MaxL2Bytes/(g.Assoc*g.BlockBytes), func(sets int) float64 {
			g.Sets = sets
			return cacheModelNs(g, t)
		})
	}
	for w := 1; w <= maxWidth; w++ {
		d.iq[w-1] = pow2Row(MinIQSize, MaxIQSize, func(size int) float64 { return iqModelNs(size, w, t) })
		d.rob[w-1] = pow2Row(MinROBSize, MaxROBSize, func(size int) float64 { return robModelNs(size, w, t) })
	}
	d.lsq = pow2Row(MinLSQSize, MaxLSQSize, func(size int) float64 { return lsqModelNs(size, t) })
	for i := range d.fit {
		d.fit[i].build(d, i+1)
	}
	return d
}

// colGeom returns the geometry of entry k of cache column c.
func colGeom(c, k int) CacheGeom {
	return CacheGeom{Sets: minSets << k, Assoc: cacheAssocs[c/len(cacheBlocks)], BlockBytes: cacheBlocks[c%len(cacheBlocks)]}
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
				return d.cache[ai*len(cacheBlocks)+bi]
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

// fitSets returns the largest power-of-two set count, from minSets up, of
// a cache that fits both [minBytes, maxBytes] and the budget, or 0 when
// none does. The scan stops at the first set count that does not fit.
func (d *delayTable) fitSets(budgetNs float64, assoc, block, minBytes, maxBytes int, t tech.Params) int {
	col := d.column(assoc, block)
	best := 0
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
			best = sets
		}
	}
	return best
}

// fitIndex answers MaxCache and CacheCandidates for one cache level with a
// binary search instead of a scan of every column.
//
// Fits is monotone in the delay, so for any budget the stored delays that
// fit are exactly ths[:j] for j = cut(budget), and a stored delay fits
// exactly when it is <= ths[j-1]. The column scan of fitSets therefore
// stops at the same entry under either test, and its answer at a budget is
// its answer at the budget's cut. There are len(ths)+1 cuts; at cut 0
// nothing fits, which is where NaN and negative budgets land.
type fitIndex struct {
	minBytes int
	// ths holds every distinct delay in the level's columns, for set
	// counts up to the level's maxBytes, in ascending order.
	ths []float64
	// ends[j][c] is where the scan of column c stops at cut j: its
	// entries before ends[j][c] fit, and the one at ends[j][c], if it is
	// within the level's maxBytes, does not.
	ends [][numCols]int8
	// max[j] is MaxCache's answer at cut j.
	max []CacheGeom
	// cands[j] is CacheCandidates' answer at cut j, built on first use.
	cands []atomic.Pointer[[]CacheGeom]
}

// build indexes d's columns for cache level 1 or 2 in one sweep over the
// ascending cuts: a column's scan only reaches further as the cut rises,
// so each column's end moves up from where the previous cut left it.
func (ix *fitIndex) build(d *delayTable, level int) {
	minBytes, maxBytes := levelBytes(level)
	ix.minBytes = minBytes
	var n [numCols]int // the column entries within maxBytes
	for c, col := range d.cache {
		for n[c] < len(col) && colGeom(c, n[c]).SizeBytes() <= maxBytes {
			ix.ths = append(ix.ths, col[n[c]])
			n[c]++
		}
	}
	slices.Sort(ix.ths)
	ix.ths = slices.Compact(ix.ths)

	cuts := len(ix.ths) + 1
	ix.ends = make([][numCols]int8, cuts)
	ix.max = make([]CacheGeom, cuts)
	ix.cands = make([]atomic.Pointer[[]CacheGeom], cuts)
	var end [numCols]int8
	for j := 1; j < cuts; j++ {
		th := ix.ths[j-1]
		for c := range end {
			for int(end[c]) < n[c] && d.cache[c][end[c]] <= th {
				end[c]++
			}
		}
		ix.ends[j] = end
		var buf [numCols]cacheCand
		var best cacheCand
		for _, cand := range ix.collect(buf[:0], d, j) {
			if !sortsAfter(best, cand) {
				best = cand
			}
		}
		ix.max[j] = best.g
	}
}

// cut returns the number of ths entries that fit the budget.
func (ix *fitIndex) cut(budgetNs float64) int {
	return sort.Search(len(ix.ths), func(i int) bool { return !Fits(ix.ths[i], budgetNs) })
}

// collect appends to dst, in cacheAssocs-major order, what the scan of
// each column accepts at cut j: the last entry before it stops, when that
// entry reaches the level's minBytes.
func (ix *fitIndex) collect(dst []cacheCand, d *delayTable, j int) []cacheCand {
	for c, end := range ix.ends[j] {
		if k := int(end) - 1; k >= 0 {
			if g := colGeom(c, k); g.SizeBytes() >= ix.minBytes {
				dst = append(dst, cacheCand{g, d.cache[c][k]})
			}
		}
	}
	return dst
}

// candidates returns CacheCandidates' list at cut j, building it on first
// use. Two goroutines may both build it; they compute the same list, and
// the first one stored is kept.
func (ix *fitIndex) candidates(d *delayTable, j int) []CacheGeom {
	if l := ix.cands[j].Load(); l != nil {
		return *l
	}
	var buf [numCols]cacheCand
	cs := ix.collect(buf[:0], d, j)
	sortGeoms(cs)
	var l []CacheGeom // nil when nothing fits, as before the index
	if len(cs) > 0 {
		l = make([]CacheGeom, len(cs))
		for i, c := range cs {
			l[i] = c.g
		}
	}
	ix.cands[j].CompareAndSwap(nil, &l)
	return *ix.cands[j].Load()
}

// index returns d's fit index for the cache level; any level other than 2
// gets the L1 index, as levelBytes gives it the L1 bounds. The empty table
// of an invalid technology has no index: it runs the model on the first
// geometry a column scan would try, which panics with the technology's
// error as that scan always has.
func (d *delayTable) index(level int, t tech.Params) *fitIndex {
	ix := &d.fit[0]
	if level == 2 {
		ix = &d.fit[1]
	}
	if ix.ths == nil {
		cacheModelNs(colGeom(0, 0), t)
	}
	return ix
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
