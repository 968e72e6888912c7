// Package workload models the benchmarks the paper characterizes. The paper
// runs the C integer SPEC2000 benchmarks compiled for PISA under SimPoint
// sampling; neither the binaries nor the simulator inputs are available
// here, so each benchmark is replaced by a parameterized synthetic workload
// model: a deterministic statistical generator over the behavioural axes
// that the microarchitecture actually observes — instruction mix, memory
// footprint and locality, branch predictability, and dependence-chain
// density (the axes of the paper's Figure 1 Kiviat graphs).
//
// The eleven named profiles are calibrated so that each lands in the
// qualitative regime the paper reports for its namesake (e.g. mcf
// memory-bound with a footprint no cache holds, crafty small-footprint and
// branch-heavy but highly predictable, gzip spatially streaming). The
// substitution preserves the property the paper's methodology depends on:
// the best configuration for a workload emerges from the interaction of all
// its characteristics with the technology, not from any single metric.
package workload

import "fmt"

// Op is a dynamic instruction class.
type Op uint8

const (
	// OpIALU is a single-cycle integer operation.
	OpIALU Op = iota
	// OpIMul is a pipelined multi-cycle integer multiply.
	OpIMul
	// OpIDiv is an unpipelined long-latency divide.
	OpIDiv
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
	// OpBranch is a conditional branch.
	OpBranch
	opCount
)

func (o Op) String() string {
	switch o {
	case OpIALU:
		return "ialu"
	case OpIMul:
		return "imul"
	case OpIDiv:
		return "idiv"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Instr is one dynamic instruction. Dependence is expressed positionally:
// Src1Dist/Src2Dist give the distance, in dynamic instructions, back to the
// producer of each source operand (0 = no register dependence).
type Instr struct {
	Op       Op
	PC       uint64 // static instruction address (stable across iterations)
	Src1Dist int32
	Src2Dist int32
	Addr     uint64 // effective address for loads/stores
	Taken    bool   // resolved direction for branches
}

// Profile parameterizes one synthetic workload.
type Profile struct {
	Name string

	// Instruction mix; fractions of the dynamic stream. The remainder
	// after all classes is integer ALU work.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	MulFrac    float64
	DivFrac    float64

	// Memory behaviour. Accesses fall in three populations: a sequential
	// stream (spatial locality), a hot region (temporal locality), and
	// cold uniform traffic over the full working set.
	WorkingSetBytes int64
	HotSetBytes     int64
	HotFrac         float64 // fraction of non-sequential accesses that stay hot
	SeqFrac         float64 // fraction of accesses that stream sequentially
	StrideBytes     int

	// PtrChaseFrac is the fraction of loads whose address depends on the
	// value of the previous load — serialized pointer chasing that
	// defeats memory-level parallelism (mcf's defining behaviour).
	PtrChaseFrac float64

	// Control behaviour. Branch sites split into loop-like sites with a
	// learnable taken pattern and data-dependent sites that are random
	// with a bias.
	BranchSites   int     // static branch working set (predictor pressure)
	LoopFrac      float64 // fraction of dynamic branches from loop sites
	LoopTrip      int     // mean loop trip count
	TakenBias     float64 // P(taken) for data-dependent sites
	RandomEntropy float64 // 0 = data-dependent sites perfectly biased, 1 = coin flips

	// Dependence behaviour.
	DepDensity  float64 // probability each source operand has a producer
	DepDistMean float64 // mean producer distance; small = dense serial chains

	// Seed makes the stream deterministic; distinct workloads use
	// distinct seeds.
	Seed int64
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	mix := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.MulFrac + p.DivFrac
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case p.LoadFrac < 0 || p.StoreFrac < 0 || p.BranchFrac < 0 || p.MulFrac < 0 || p.DivFrac < 0:
		return fmt.Errorf("workload %s: negative mix fraction", p.Name)
	case mix > 1:
		return fmt.Errorf("workload %s: instruction mix sums to %.2f > 1", p.Name, mix)
	case p.WorkingSetBytes <= 0:
		return fmt.Errorf("workload %s: working set %d must be positive", p.Name, p.WorkingSetBytes)
	case p.HotSetBytes <= 0 || p.HotSetBytes > p.WorkingSetBytes:
		return fmt.Errorf("workload %s: hot set %d outside (0, working set]", p.Name, p.HotSetBytes)
	case p.HotFrac < 0 || p.HotFrac > 1 || p.SeqFrac < 0 || p.SeqFrac > 1:
		return fmt.Errorf("workload %s: locality fractions outside [0,1]", p.Name)
	case p.PtrChaseFrac < 0 || p.PtrChaseFrac > 1:
		return fmt.Errorf("workload %s: pointer-chase fraction outside [0,1]", p.Name)
	case p.StrideBytes <= 0:
		return fmt.Errorf("workload %s: stride %d must be positive", p.Name, p.StrideBytes)
	case p.BranchSites <= 0:
		return fmt.Errorf("workload %s: needs at least one branch site", p.Name)
	case p.LoopFrac < 0 || p.LoopFrac > 1:
		return fmt.Errorf("workload %s: loop fraction outside [0,1]", p.Name)
	case p.LoopTrip < 2:
		return fmt.Errorf("workload %s: loop trip %d must be >= 2", p.Name, p.LoopTrip)
	case p.TakenBias < 0 || p.TakenBias > 1:
		return fmt.Errorf("workload %s: taken bias outside [0,1]", p.Name)
	case p.RandomEntropy < 0 || p.RandomEntropy > 1:
		return fmt.Errorf("workload %s: entropy outside [0,1]", p.Name)
	case p.DepDensity < 0 || p.DepDensity > 1:
		return fmt.Errorf("workload %s: dependence density outside [0,1]", p.Name)
	case p.DepDistMean < 1:
		return fmt.Errorf("workload %s: dependence distance mean %.2f must be >= 1", p.Name, p.DepDistMean)
	}
	return nil
}

// rng is a small splitmix64 generator: deterministic, seedable, fast, and
// independent of math/rand internals so traces are stable across Go
// releases.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// geometric samples a geometric distribution with the given mean (>= 1).
func (r *rng) geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse-transform sampling with a cap to bound pathological tails.
	n := 1
	for r.float() > p && n < 4096 {
		n++
	}
	return n
}

// branchSite models one static conditional branch.
type branchSite struct {
	pc     uint64
	isLoop bool
	trip   int // loop trip count (taken trip-1 times, then fall out)
	count  int // current iteration
	bias   float64
}

// Generator produces the deterministic instruction stream of a profile.
// Not safe for concurrent use; create one per simulation.
type Generator struct {
	p       Profile
	rng     *rng
	sites   []branchSite
	curSite int

	// Cumulative instruction-mix thresholds, precomputed once per Reset.
	// Each is the left-to-right partial sum the selection switch used to
	// recompute per instruction, so draws compare against bit-identical
	// values and the stream is unchanged.
	mixLoad, mixStore, mixBranch, mixMul, mixDiv float64

	seqPtr   uint64 // sequential stream cursor
	lastLoad struct {
		valid bool
		dist  int32 // instructions since the last load
		addr  uint64
	}
	idx uint64 // dynamic instruction index

	// Address space layout: sequential, hot and cold regions are
	// disjoint so locality populations do not interfere.
	seqBase, hotBase, coldBase uint64
}

// NewGenerator builds a generator for the profile. The stream restarts from
// the beginning on Reset and is identical for identical profiles.
func NewGenerator(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p}
	g.Reset()
	return g, nil
}

// Reset rewinds the generator to the start of the stream.
func (g *Generator) Reset() {
	p := g.p
	g.rng = newRNG(p.Seed)
	g.idx = 0
	g.seqPtr = 0
	g.curSite = 0
	g.lastLoad.valid = false

	g.seqBase = 0x1000_0000
	g.hotBase = 0x4000_0000
	g.coldBase = 0x8000_0000

	g.mixLoad = p.LoadFrac
	g.mixStore = g.mixLoad + p.StoreFrac
	g.mixBranch = g.mixStore + p.BranchFrac
	g.mixMul = g.mixBranch + p.MulFrac
	g.mixDiv = g.mixMul + p.DivFrac

	g.sites = make([]branchSite, p.BranchSites)
	siteRNG := newRNG(p.Seed ^ 0x5eed)
	for i := range g.sites {
		s := &g.sites[i]
		s.pc = 0x0040_0000 + uint64(i)*16
		s.isLoop = siteRNG.float() < p.LoopFrac
		if s.isLoop {
			// Trip counts scatter around the mean so loop exits
			// are not phase-locked across sites.
			s.trip = 2 + siteRNG.intn(2*p.LoopTrip-3)
		}
		// Per-site bias jitter: real data-dependent branches are not
		// all biased identically.
		s.bias = p.TakenBias
		if jitter := siteRNG.float()*0.2 - 0.1; s.bias+jitter > 0 && s.bias+jitter < 1 {
			s.bias += jitter
		}
	}
}

// Next fills ins with the next dynamic instruction.
func (g *Generator) Next(ins *Instr) {
	p := &g.p
	r := g.rng
	*ins = Instr{}
	g.idx++
	if g.lastLoad.valid {
		g.lastLoad.dist++
	}

	x := r.float()
	switch {
	case x < g.mixLoad:
		ins.Op = OpLoad
	case x < g.mixStore:
		ins.Op = OpStore
	case x < g.mixBranch:
		ins.Op = OpBranch
	case x < g.mixMul:
		ins.Op = OpIMul
	case x < g.mixDiv:
		ins.Op = OpIDiv
	default:
		ins.Op = OpIALU
	}

	// Register dependences.
	if r.float() < p.DepDensity {
		ins.Src1Dist = int32(r.geometric(p.DepDistMean))
	}
	if r.float() < p.DepDensity*0.6 {
		ins.Src2Dist = int32(r.geometric(p.DepDistMean))
	}

	switch ins.Op {
	case OpLoad, OpStore:
		ins.Addr = g.address(ins)
		ins.PC = 0x0041_0000 + uint64(r.intn(1024))*8
	case OpBranch:
		g.branch(ins)
	default:
		ins.PC = 0x0042_0000 + uint64(r.intn(4096))*4
	}

	if ins.Op == OpLoad {
		g.lastLoad.valid = true
		g.lastLoad.dist = 0
		g.lastLoad.addr = ins.Addr
	}
}

// NextBatch fills dst with the next len(dst) instructions — the same
// instructions that many successive Next calls would produce.
func (g *Generator) NextBatch(dst []Instr) int {
	for i := range dst {
		g.Next(&dst[i])
	}
	return len(dst)
}

// address draws an effective address from the three-population locality
// model, and wires pointer-chase dependences for loads.
func (g *Generator) address(ins *Instr) uint64 {
	p := &g.p
	r := g.rng

	if ins.Op == OpLoad && g.lastLoad.valid && r.float() < p.PtrChaseFrac {
		// The address comes from the previous load's value: serialize
		// on it and land somewhere cold, defeating both caches and
		// overlap.
		ins.Src1Dist = g.lastLoad.dist
		return g.coldBase + (g.lastLoad.addr*0x9E3779B9+g.rng.next()%64)%(uint64(p.WorkingSetBytes))&^7
	}

	x := r.float()
	switch {
	case x < p.SeqFrac:
		g.seqPtr += uint64(p.StrideBytes)
		if g.seqPtr >= uint64(p.WorkingSetBytes) {
			g.seqPtr = 0
		}
		return g.seqBase + g.seqPtr
	case x < p.SeqFrac+(1-p.SeqFrac)*p.HotFrac:
		// Temporal locality is skewed, not uniform: cubing the
		// uniform draw concentrates most accesses in a small prefix
		// of the hot region, so caches capture a growing fraction of
		// traffic as their capacity grows — the smooth miss-rate
		// curve real working sets exhibit.
		u := r.float()
		u3 := u * u * u
		off := uint64(u3 * u3 * float64(p.HotSetBytes))
		return g.hotBase + off&^7
	default:
		return g.coldBase + uint64(r.next())%uint64(p.WorkingSetBytes)&^7
	}
}

// branch resolves the next dynamic branch through its static site model.
// Control flow walks the sites the way a program does: a loop site is
// revisited on consecutive dynamic branches until its trip count expires
// (its body's non-branch instructions interleave between visits), then
// control falls through to the next site, with occasional non-local jumps
// standing in for calls. The resulting repetitive history is what makes
// history-based predictors effective on the learnable sites.
func (g *Generator) branch(ins *Instr) {
	p := &g.p
	r := g.rng
	s := &g.sites[g.curSite]
	ins.PC = s.pc
	if s.isLoop {
		s.count++
		if s.count >= s.trip {
			s.count = 0
			ins.Taken = false // fall out of the loop
			g.advanceSite()
		} else {
			ins.Taken = true // stay in the loop
		}
		return
	}
	// Data-dependent site: with probability RandomEntropy the outcome is
	// a pure coin flip; otherwise it follows the site bias.
	if r.float() < p.RandomEntropy {
		ins.Taken = r.float() < 0.5
	} else {
		ins.Taken = r.float() < s.bias
	}
	g.advanceSite()
}

// advanceSite moves control to the next static branch site: usually the
// next in program order, occasionally a jump elsewhere.
func (g *Generator) advanceSite() {
	if g.rng.float() < 0.15 {
		g.curSite = g.rng.intn(len(g.sites))
		return
	}
	g.curSite++
	if g.curSite >= len(g.sites) {
		g.curSite = 0
	}
}
