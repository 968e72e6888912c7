package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"xpscalar/internal/timing"
)

func mustCache(t *testing.T, g timing.CacheGeom) *Cache {
	t.Helper()
	c, err := New(g)
	if err != nil {
		t.Fatalf("New(%v) = %v", g, err)
	}
	return c
}

func smallGeom() timing.CacheGeom {
	return timing.CacheGeom{Sets: 16, Assoc: 2, BlockBytes: 32} // 1K
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(timing.CacheGeom{Sets: 3, Assoc: 1, BlockBytes: 32}); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustCache(t, smallGeom())
	hit, _, _ := c.access(0x1000, false)
	if hit {
		t.Error("first access hit an empty cache")
	}
	hit, _, _ = c.access(0x1000, false)
	if !hit {
		t.Error("second access to same address missed")
	}
	// Same block, different offset.
	hit, _, _ = c.access(0x101F, false)
	if !hit {
		t.Error("same-block access missed")
	}
	// Next block.
	hit, _, _ = c.access(0x1020, false)
	if hit {
		t.Error("different block hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses 2 misses", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustCache(t, smallGeom()) // 2-way, 16 sets, 32B blocks
	setStride := uint64(16 * 32)   // addresses this far apart share a set
	a, b, d := uint64(0x0), setStride, 2*setStride

	c.access(a, false) // a in
	c.access(b, false) // b in; set full
	c.access(a, false) // a most recent
	c.access(d, false) // evicts b (LRU)
	if hit, _, _ := c.access(a, false); !hit {
		t.Error("a should have survived (was MRU)")
	}
	if hit, _, _ := c.access(b, false); hit {
		t.Error("b should have been evicted (was LRU)")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, smallGeom())
	setStride := uint64(16 * 32)
	c.access(0x0, true)                           // dirty
	c.access(setStride, false)                    // clean, fills way 2
	_, wb, victim := c.access(2*setStride, false) // evicts dirty block 0
	if !wb {
		t.Fatal("evicting a dirty block must report a writeback")
	}
	if victim != 0x0 {
		t.Errorf("victim address = %#x, want 0x0", victim)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Clean eviction: no writeback.
	_, wb, _ = c.access(3*setStride, false) // evicts clean setStride block
	if wb {
		t.Error("evicting a clean block reported a writeback")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := mustCache(t, smallGeom())
	c.access(0x40, false)
	before := c.Stats()
	if !c.Contains(0x40) {
		t.Error("Contains missed a resident block")
	}
	if c.Contains(0xDEAD0000) {
		t.Error("Contains found an absent block")
	}
	if c.Stats() != before {
		t.Error("Contains changed statistics")
	}
}

func TestReset(t *testing.T) {
	c := mustCache(t, smallGeom())
	c.access(0x40, true)
	c.reset()
	if c.Stats() != (Stats{}) {
		t.Error("reset did not clear stats")
	}
	if c.Contains(0x40) {
		t.Error("reset did not clear contents")
	}

	t.Run("line stays 24 bytes", func(t *testing.T) {
		if got := unsafe.Sizeof(line{}); got != 24 {
			t.Errorf("sizeof(line) = %d, want 24", got)
		}
	})

	// Block addresses below 16*32 have tag 0 in smallGeom, the tag a
	// zeroed line holds; filled ones use nonzero tags.
	filled := []uint64{0x1000, 0x1020, 0x2000, 0x3040}

	t.Run("generation wrap", func(t *testing.T) {
		c := mustCache(t, smallGeom())
		c.gen = math.MaxUint32
		for _, a := range filled {
			c.access(a, true)
		}
		c.reset()
		if c.gen != 1 {
			t.Errorf("gen after wrap = %d, want 1", c.gen)
		}
		for _, a := range append(filled, 0, 0x20) {
			if c.Contains(a) {
				t.Errorf("%#x resident after a wrapping reset", a)
			}
		}
		if hit, wb, _ := c.access(0, false); hit || wb {
			t.Errorf("access(0) after a wrapping reset: hit=%v writeback=%v, want a clean miss", hit, wb)
		}
	})

	t.Run("shrink then grow across a wrap", func(t *testing.T) {
		big := timing.CacheGeom{Sets: 64, Assoc: 2, BlockBytes: 32}
		c := mustCache(t, big)
		// Fill at gen 2, in sets past the small geometry: the regrow
		// below lands on gen 2 again.
		c.reset()
		high := []uint64{48 * 32, 50*32 + 64*32, 63 * 32}
		for _, a := range high {
			c.access(a, true)
		}
		c.reconfigure(smallGeom()) // shrink: those lines now sit past len
		c.gen = math.MaxUint32
		c.reset() // wraps to 1 while len < cap
		c.reconfigure(big)
		if c.gen != 2 || cap(c.sets) != 128 {
			t.Fatalf("after regrow gen=%d cap=%d, want gen 2 in the original 128-line array", c.gen, cap(c.sets))
		}
		for _, a := range high {
			if c.Contains(a) {
				t.Errorf("%#x, filled before the shrink, is resident after the regrow", a)
			}
			if hit, wb, _ := c.access(a, false); hit || wb {
				t.Errorf("access(%#x) after the regrow: hit=%v writeback=%v, want a clean miss", a, hit, wb)
			}
		}
	})
}

func TestHierarchyReconfigure(t *testing.T) {
	l1 := timing.CacheGeom{Sets: 64, Assoc: 2, BlockBytes: 32}
	l2 := timing.CacheGeom{Sets: 512, Assoc: 4, BlockBytes: 64}
	h, err := NewHierarchy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0x1000, true)

	small1 := timing.CacheGeom{Sets: 16, Assoc: 1, BlockBytes: 32}
	small2 := timing.CacheGeom{Sets: 64, Assoc: 2, BlockBytes: 128}
	if err := h.Reconfigure(small1, small2); err != nil {
		t.Fatal(err)
	}
	if h.L1().Geom() != small1 || h.L2().Geom() != small2 {
		t.Errorf("geometries = %v, %v; want %v, %v", h.L1().Geom(), h.L2().Geom(), small1, small2)
	}
	if h.L1().Stats() != (Stats{}) || h.L2().Stats() != (Stats{}) || h.L1().Contains(0x1000) || h.L2().Contains(0x1000) {
		t.Error("Reconfigure did not empty the hierarchy")
	}
	if c1, c2 := cap(h.l1.sets), cap(h.l2.sets); c1 != 128 || c2 != 2048 {
		t.Errorf("shrink reallocated: caps %d, %d; want the original 128, 2048", c1, c2)
	}

	bad := timing.CacheGeom{Sets: 3, Assoc: 1, BlockBytes: 32}
	if err := h.Reconfigure(l1, bad); err == nil {
		t.Error("Reconfigure accepted a non-power-of-two L2")
	}
	if h.L1().Geom() != small1 {
		t.Error("a failed Reconfigure changed the L1")
	}

	// Every access sequence must see the hierarchy a fresh NewHierarchy
	// would build, whatever geometries it held before.
	if err := h.Reconfigure(l1, l2); err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewHierarchy(l1, l2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		addr, write := uint64(rng.Intn(1<<16)), rng.Intn(4) == 0
		if got, want := h.Access(addr, write), fresh.Access(addr, write); got != want {
			t.Fatalf("access %d (%#x): reconfigured hierarchy served %v, fresh %v", i, addr, got, want)
		}
	}
	if h.L1().Stats() != fresh.L1().Stats() || h.L2().Stats() != fresh.L2().Stats() {
		t.Errorf("stats diverged: %+v/%+v vs %+v/%+v", h.L1().Stats(), h.L2().Stats(), fresh.L1().Stats(), fresh.L2().Stats())
	}
}

func TestWorkingSetFitsCacheHasNoCapacityMisses(t *testing.T) {
	// Touch 512B repeatedly in a 1K cache: after the first pass,
	// everything hits.
	c := mustCache(t, smallGeom())
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 512; addr += 32 {
			c.access(addr, false)
		}
	}
	s := c.Stats()
	if s.Misses != 16 {
		t.Errorf("misses = %d, want 16 (cold only)", s.Misses)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(
		timing.CacheGeom{Sets: 16, Assoc: 1, BlockBytes: 32}, // 512B L1
		timing.CacheGeom{Sets: 64, Assoc: 2, BlockBytes: 64}, // 8K L2
	)
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Access(0x1000, false); lvl != LevelMemory {
		t.Errorf("cold access served by %v, want memory", lvl)
	}
	if lvl := h.Access(0x1000, false); lvl != LevelL1 {
		t.Errorf("hot access served by %v, want L1", lvl)
	}
	// Evict from L1 (direct mapped: same set index, different tag) but
	// stay within L2.
	if lvl := h.Access(0x1000+16*32, false); lvl != LevelMemory {
		t.Errorf("conflicting access served by %v, want memory", lvl)
	}
	if lvl := h.Access(0x1000, false); lvl != LevelL2 {
		t.Errorf("L1-evicted block served by %v, want L2", lvl)
	}
}

func TestHierarchyWritebackReachesL2(t *testing.T) {
	h, err := NewHierarchy(
		timing.CacheGeom{Sets: 16, Assoc: 1, BlockBytes: 32},
		timing.CacheGeom{Sets: 1024, Assoc: 4, BlockBytes: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0x0, true)    // dirty in L1 (and allocated in L2 path? no: L1 write-allocate, L2 untouched on L1 miss -> L2 allocates too)
	h.Access(16*32, false) // evicts dirty 0x0 from L1 -> writeback to L2
	if h.L2().Stats().Accesses < 2 {
		t.Errorf("L2 accesses = %d, want >= 2 (fill + writeback)", h.L2().Stats().Accesses)
	}
	if !h.L2().Contains(0x0) {
		t.Error("written-back block absent from L2")
	}
}

func TestLargerCacheNeverMissesMore(t *testing.T) {
	// Property: on the same trace, doubling capacity (same block size)
	// should not increase misses materially. LRU with more sets is not
	// strictly inclusive, so allow a tiny tolerance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := mustCacheQ(timing.CacheGeom{Sets: 32, Assoc: 2, BlockBytes: 32})
		big := mustCacheQ(timing.CacheGeom{Sets: 64, Assoc: 2, BlockBytes: 32})
		if small == nil || big == nil {
			return false
		}
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(8192)) &^ 7
			small.access(addr, false)
			big.access(addr, false)
		}
		return float64(big.Stats().Misses) <= float64(small.Stats().Misses)*1.05+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func mustCacheQ(g timing.CacheGeom) *Cache {
	c, err := New(g)
	if err != nil {
		return nil
	}
	return c
}

func TestFullAssociativityRemovesConflicts(t *testing.T) {
	// Two blocks that conflict in a direct-mapped cache coexist in a
	// 2-way cache of equal capacity.
	dm := mustCache(t, timing.CacheGeom{Sets: 32, Assoc: 1, BlockBytes: 32})
	sa := mustCache(t, timing.CacheGeom{Sets: 16, Assoc: 2, BlockBytes: 32})
	a, b := uint64(0), uint64(16*32) // same set in both... for dm: set = (addr>>5)&31: a->0, b->16. Need dm conflict: use 32*32.
	b = 32 * 32                      // dm set 0, sa set 0
	for i := 0; i < 10; i++ {
		dm.access(a, false)
		dm.access(b, false)
		sa.access(a, false)
		sa.access(b, false)
	}
	if dm.Stats().Misses <= 2 {
		t.Errorf("direct-mapped misses = %d, expected conflict thrashing", dm.Stats().Misses)
	}
	if sa.Stats().Misses != 2 {
		t.Errorf("2-way misses = %d, want 2 (cold only)", sa.Stats().Misses)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(
		timing.CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32},
		timing.CacheGeom{Sets: 2048, Assoc: 4, BlockBytes: 128},
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(rng.Intn(1<<20)), i&7 == 0)
	}
}
