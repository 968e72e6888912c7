// Microarchitecture-independent workload characterization: the raw metrics
// that conventional workload subsetting operates on, and that the paper's
// Figure 1 plots as Kiviat axes. These are measured by streaming the
// synthetic trace through architecture-independent observers (a reference
// branch-entropy estimator, a block-footprint counter, dependence
// statistics) — deliberately *without* any processor model, since the whole
// point of the paper is that these metrics alone cannot predict the best
// configuration.

package workload

import "fmt"

// Characteristics are the raw, microarchitecture-independent metrics of one
// workload. The five Kiviat axes of the paper's Figure 1 are marked.
type Characteristics struct {
	Name string

	// WorkingSetBlocks counts distinct 64-byte blocks touched — Figure 1
	// axis A (working-set size).
	WorkingSetBlocks int

	// BranchPredictability is the hit rate of an idealized per-site
	// pattern predictor — Figure 1 axis B.
	BranchPredictability float64

	// DepChainDensity is the mean number of register inputs per
	// instruction weighted by closeness of the producer — Figure 1
	// axis C (density of dependence chains).
	DepChainDensity float64

	// LoadFrac is the fraction of dynamic loads — Figure 1 axis D.
	LoadFrac float64

	// BranchFrac is the fraction of conditional branches — Figure 1
	// axis E.
	BranchFrac float64

	// Supplementary metrics used by the subsetting baseline.
	StoreFrac    float64
	AvgDepDist   float64 // mean producer distance among dependent operands
	Instructions int
}

// Vector returns the characteristics as a raw feature vector in the fixed
// order used by the subsetting baseline (the five Figure 1 axes followed by
// the supplementary metrics).
func (c Characteristics) Vector() []float64 {
	return []float64{
		float64(c.WorkingSetBlocks),
		c.BranchPredictability,
		c.DepChainDensity,
		c.LoadFrac,
		c.BranchFrac,
		c.StoreFrac,
		c.AvgDepDist,
	}
}

// Extract measures the characteristics of the first n instructions of the
// profile's stream.
func Extract(p Profile, n int) (Characteristics, error) {
	if n <= 0 {
		return Characteristics{}, fmt.Errorf("workload: Extract needs n > 0, got %d", n)
	}
	g, err := NewGenerator(p)
	if err != nil {
		return Characteristics{}, err
	}

	blocks := make(map[uint64]struct{})
	// Idealized predictability reference: an unbounded last-k pattern
	// table per branch site, immune to aliasing — measures inherent
	// predictability rather than any structure's hit rate.
	type sitePattern struct {
		hist   uint64
		counts map[uint64]int8
	}
	patterns := make(map[uint64]*sitePattern)

	var (
		ins                           Instr
		loads, stores, branches, hits int
		depOps, depDistSum            int
		density                       float64
	)
	for i := 0; i < n; i++ {
		g.Next(&ins)
		for _, d := range []int32{ins.Src1Dist, ins.Src2Dist} {
			if d > 0 {
				depOps++
				depDistSum += int(d)
				density += 1 / float64(d)
			}
		}
		switch ins.Op {
		case OpLoad, OpStore:
			if ins.Op == OpLoad {
				loads++
			} else {
				stores++
			}
			blocks[ins.Addr>>6] = struct{}{}
		case OpBranch:
			branches++
			sp := patterns[ins.PC]
			if sp == nil {
				sp = &sitePattern{counts: make(map[uint64]int8)}
				patterns[ins.PC] = sp
			}
			key := sp.hist
			pred := sp.counts[key] >= 0
			if pred == ins.Taken {
				hits++
			}
			if ins.Taken {
				if sp.counts[key] < 8 {
					sp.counts[key]++
				}
			} else {
				if sp.counts[key] > -8 {
					sp.counts[key]--
				}
			}
			sp.hist = (sp.hist<<1 | b2uHist(ins.Taken)) & 0xFFFF
		}
	}

	c := Characteristics{
		Name:             p.Name,
		WorkingSetBlocks: len(blocks),
		LoadFrac:         float64(loads) / float64(n),
		StoreFrac:        float64(stores) / float64(n),
		BranchFrac:       float64(branches) / float64(n),
		DepChainDensity:  density / float64(n),
		Instructions:     n,
	}
	if branches > 0 {
		c.BranchPredictability = float64(hits) / float64(branches)
	}
	if depOps > 0 {
		c.AvgDepDist = float64(depDistSum) / float64(depOps)
	}
	return c, nil
}

func b2uHist(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
