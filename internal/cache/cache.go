// Package cache implements the data-cache hierarchy the pipeline model
// issues loads and stores against: set-associative, write-back,
// write-allocate caches with true-LRU replacement, composed into a two-level
// hierarchy backed by a fixed-latency main memory.
//
// A hierarchy is built once and reconfigured between runs. Each line
// records the generation that filled it and is valid only while that
// generation is the cache's current one, so emptying a cache is a counter
// bump rather than a clear, and a new geometry reuses the existing line
// array whenever its capacity covers it. A short evaluation touches a few
// thousand lines of an array that can hold a million, so a run pays only
// for the lines it uses.
//
// Latencies live in the configuration, not the cache: the paper's
// exploration assigns each cache level an access cycle count that its
// geometry must fit (via the array timing model), so the hierarchy here is
// purely functional — it reports which level served an access and leaves
// cycle accounting to the pipeline.
package cache

import (
	"fmt"

	"xpscalar/internal/timing"
)

// Level identifies which part of the hierarchy served an access.
type Level int

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = 1
	// LevelL2 is a first-level miss served by the second level.
	LevelL2 Level = 2
	// LevelMemory missed in all cache levels.
	LevelMemory Level = 3
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Stats counts accesses and misses for one cache.
type Stats struct {
	Accesses   uint64 `json:"accesses"`
	Misses     uint64 `json:"misses"`
	Writebacks uint64 `json:"writebacks"`
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag uint64
	// lru is a logical timestamp; the smallest value in a set is the
	// least recently used way.
	lru uint64
	// gen is the generation that filled the line: the line is valid iff
	// gen equals its cache's gen. A uint32 keeps the line at 24 bytes.
	gen   uint32
	dirty bool
}

// Cache is one set-associative, write-back, write-allocate cache level.
// It is not safe for concurrent use.
//
// The line array is flat (sets*assoc entries, row-major by set) and both
// geometry dimensions are powers of two, so an access is two shifts and a
// mask — the index arithmetic is precomputed once per geometry, never per
// probe.
type Cache struct {
	geom      timing.CacheGeom
	sets      []line // sets*assoc lines, row-major by set; cap may be larger
	gen       uint32 // current generation; >= 1 once configured, so a zeroed line is invalid
	blockBits uint   // log2(BlockBytes)
	setBits   uint   // log2(Sets)
	tagShift  uint   // blockBits + setBits: address -> tag
	setMask   uint64
	tick      uint64
	stats     Stats
}

// New builds an empty cache with the given geometry.
func New(geom timing.CacheGeom) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	c := new(Cache)
	c.reconfigure(geom)
	return c, nil
}

// reconfigure empties the cache and re-derives its index arithmetic for a
// validated geometry. The line array is reused whenever its capacity covers
// the geometry; it is reallocated only to grow.
func (c *Cache) reconfigure(geom timing.CacheGeom) {
	if n := geom.Sets * geom.Assoc; n <= cap(c.sets) {
		c.sets = c.sets[:n]
	} else {
		c.sets = make([]line, n)
	}
	c.geom = geom
	c.blockBits = uint(log2(geom.BlockBytes))
	c.setBits = uint(log2(geom.Sets))
	c.tagShift = c.blockBits + c.setBits
	c.setMask = uint64(geom.Sets - 1)
	c.reset()
}

// Geom returns the cache geometry.
func (c *Cache) Geom() timing.CacheGeom { return c.geom }

// Stats returns cumulative access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// reset empties the cache and clears its statistics by starting a new
// generation: every line filled before it reads as invalid. When the
// counter wraps, the whole backing array — up to cap, not len, so lines a
// shrink left behind cannot match a later generation after a grow — is
// zeroed once and the count restarts at 1.
func (c *Cache) reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.sets[:cap(c.sets)])
		c.gen = 1
	}
	c.tick = 0
	c.stats = Stats{}
}

// access probes the cache; on a miss the block is allocated, evicting the
// LRU way. It reports whether the access hit and whether a dirty block was
// evicted (a writeback the next level must absorb).
func (c *Cache) access(addr uint64, write bool) (hit, writeback bool, victimAddr uint64) {
	c.stats.Accesses++
	c.tick++
	set := (addr >> c.blockBits) & c.setMask
	tag := addr >> c.tagShift
	gen := c.gen
	ways := c.sets[set*uint64(c.geom.Assoc) : (set+1)*uint64(c.geom.Assoc)]
	for i := range ways {
		w := &ways[i]
		if w.gen == gen && w.tag == tag {
			w.lru = c.tick
			if write {
				w.dirty = true
			}
			return true, false, 0
		}
	}
	c.stats.Misses++
	// Victim: first invalid way, else true-LRU.
	victim := 0
	for i := range ways {
		if ways[i].gen != gen {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	v := &ways[victim]
	if v.gen == gen && v.dirty {
		writeback = true
		victimAddr = (v.tag<<c.setBits | set) << c.blockBits
		c.stats.Writebacks++
	}
	*v = line{tag: tag, lru: c.tick, gen: gen, dirty: write}
	return false, writeback, victimAddr
}

// Contains reports whether the block holding addr is resident, without
// perturbing LRU state or statistics. Intended for tests.
func (c *Cache) Contains(addr uint64) bool {
	set := (addr >> c.blockBits) & c.setMask
	tag := addr >> c.tagShift
	ways := c.sets[set*uint64(c.geom.Assoc) : (set+1)*uint64(c.geom.Assoc)]
	for i := range ways {
		if ways[i].gen == c.gen && ways[i].tag == tag {
			return true
		}
	}
	return false
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Hierarchy is a two-level data-cache hierarchy over main memory. The
// zero value holds no lines; Reconfigure readies it.
type Hierarchy struct {
	l1, l2 Cache
}

// NewHierarchy composes an empty L1 and a unified L2.
func NewHierarchy(l1Geom, l2Geom timing.CacheGeom) (*Hierarchy, error) {
	h := new(Hierarchy)
	if err := h.Reconfigure(l1Geom, l2Geom); err != nil {
		return nil, err
	}
	return h, nil
}

// Reconfigure empties both levels, clears their statistics and gives them
// new geometries, reusing each level's line array whenever its capacity
// covers the new geometry: the arrays only grow, so a hierarchy that is
// reconfigured run after run stops allocating once it has held its
// largest geometries. With unchanged geometries it simply empties the
// hierarchy. On error the hierarchy is left as it was.
func (h *Hierarchy) Reconfigure(l1Geom, l2Geom timing.CacheGeom) error {
	if err := l1Geom.Validate(); err != nil {
		return fmt.Errorf("cache: L1: %w", err)
	}
	if err := l2Geom.Validate(); err != nil {
		return fmt.Errorf("cache: L2: %w", err)
	}
	h.l1.reconfigure(l1Geom)
	h.l2.reconfigure(l2Geom)
	return nil
}

// Access performs a load (write=false) or store (write=true) and returns
// the level that served it. Writebacks are propagated to the next level.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	hit, wb, victim := h.l1.access(addr, write)
	if wb {
		// Dirty L1 victim lands in L2 (write-back path).
		h.l2.access(victim, true)
	}
	if hit {
		return LevelL1
	}
	hit2, _, _ := h.l2.access(addr, false)
	if hit2 {
		return LevelL2
	}
	return LevelMemory
}

// L1 returns the first-level cache.
func (h *Hierarchy) L1() *Cache { return &h.l1 }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return &h.l2 }
