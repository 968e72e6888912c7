// Package pipeline is the cycle-level model of an out-of-order superscalar
// core — the stand-in for SimpleScalar's sim-mase timing simulator that the
// paper's xp-scalar framework drives.
//
// The model is trace-driven: it consumes the deterministic instruction
// stream of a workload generator and accounts, cycle by cycle, for the
// resources the paper's exploration varies — machine width, front-end
// depth, ROB / issue-queue / load-store-queue capacities, scheduler depth,
// the minimum wakeup latency between dependent instructions, and the data
// cache hierarchy. Wrong-path execution is approximated by fetch redirect
// bubbles (the standard trace-driven simplification): after a mispredicted
// branch is fetched, fetch stalls until the branch executes, and the
// refilled instructions pay the front-end depth again before dispatch, so
// deeper pipelines see proportionally larger misprediction penalties.
package pipeline

import (
	"fmt"
	"math/bits"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/workload"
)

// Params is the cycle-domain configuration of the core. The sim package
// derives it from an architectural configuration plus the timing model.
type Params struct {
	// Width is the dispatch, issue and commit width.
	Width int
	// FrontEndStages is the fetch-to-dispatch depth; it sets the refill
	// part of the misprediction penalty.
	FrontEndStages int
	// ROBSize, IQSize and LSQSize bound the reorder buffer, issue queue
	// and load/store queue occupancies.
	ROBSize, IQSize, LSQSize int
	// SchedStages is the scheduler / register-file pipeline depth; it
	// delays branch resolution and load initiation.
	SchedStages int
	// LSQStages is the load/store queue pipeline depth, paid by every
	// memory operation before its cache access.
	LSQStages int
	// WakeupExtra is the minimum latency, in cycles, for awakening
	// dependent instructions: 0 permits back-to-back issue, larger
	// values model a pipelined scheduling loop.
	WakeupExtra int
	// LatL1, LatL2 and LatMem are total load-to-use cycle counts by
	// serving level (each includes the levels probed on the way).
	LatL1, LatL2, LatMem int
	// MulLat and DivLat are the integer multiply / divide latencies.
	MulLat, DivLat int
	// MemPorts bounds memory operations issued per cycle (Table 1
	// models the caches with two read and two write ports).
	MemPorts int
}

// Validate reports whether the parameters describe a runnable core.
func (p Params) Validate() error {
	switch {
	case p.Width < 1:
		return fmt.Errorf("pipeline: width %d must be >= 1", p.Width)
	case p.FrontEndStages < 1:
		return fmt.Errorf("pipeline: front-end depth %d must be >= 1", p.FrontEndStages)
	case p.ROBSize < p.Width:
		return fmt.Errorf("pipeline: ROB %d must be >= width %d", p.ROBSize, p.Width)
	case p.IQSize < 1 || p.IQSize > p.ROBSize:
		return fmt.Errorf("pipeline: IQ %d must be in [1, ROB=%d]", p.IQSize, p.ROBSize)
	case p.LSQSize < 1:
		return fmt.Errorf("pipeline: LSQ %d must be >= 1", p.LSQSize)
	case p.SchedStages < 1:
		return fmt.Errorf("pipeline: scheduler depth %d must be >= 1", p.SchedStages)
	case p.LSQStages < 1:
		return fmt.Errorf("pipeline: LSQ depth %d must be >= 1", p.LSQStages)
	case p.WakeupExtra < 0:
		return fmt.Errorf("pipeline: wakeup latency %d must be >= 0", p.WakeupExtra)
	case p.LatL1 < 1 || p.LatL2 < p.LatL1 || p.LatMem < p.LatL2:
		return fmt.Errorf("pipeline: cache latencies must satisfy 1 <= L1(%d) <= L2(%d) <= mem(%d)",
			p.LatL1, p.LatL2, p.LatMem)
	case p.MulLat < 1 || p.DivLat < 1:
		return fmt.Errorf("pipeline: FU latencies must be >= 1")
	case p.MemPorts < 1:
		return fmt.Errorf("pipeline: memory ports %d must be >= 1", p.MemPorts)
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Branch       bpred.Stats
	L1, L2       cache.Stats
	// LoadsByLevel counts loads by serving level (L1, L2, memory).
	LoadsL1, LoadsL2, LoadsMem uint64
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

const (
	stWaiting uint8 = iota // dispatched, in IQ, operands possibly outstanding
	stDone                 // issued; result available at doneAt
)

// batchSize is the delivery slab: how many instructions one Source.NextBatch
// call brings into the core. Large enough to amortize the interface call
// into noise, small enough that the slab stays resident in L1.
const batchSize = 512

// robEntry is one in-flight instruction. Entries live in a ring indexed by
// dynamic instruction number.
type robEntry struct {
	op      workload.Op
	state   uint8
	mispred bool
	isMem   bool
	level   uint8  // serving cache level for issued loads (levelNone otherwise)
	doneAt  int64  // first cycle the result is available to consumers
	dep1    uint64 // absolute producer indices; 0 = none
	dep2    uint64
	addr    uint64
}

// The issue stage is event-driven: instead of scanning an issue queue
// every cycle, the scheduler files each dispatched instruction under the
// one event that can make it issuable and touches it again only when that
// event fires. A waiting instruction is in exactly one of three places:
//
//   - A producer's waiter chain, while any producer has not issued yet
//     (waiterHead/waiterNext, singly linked through the ring slots). When
//     the producer issues, its waiters are re-resolved on the spot: a
//     consumer either moves on to its other blocking producer or learns
//     its final wakeup time.
//
//   - The wake wheel, once every producer's completion time is fixed but
//     the wakeup max(doneAt+WakeupExtra) is still in the future. The wheel
//     is a ring of buckets keyed by wakeup cycle modulo the wheel length
//     (sized to the worst-case latency, so no wakeup can lap it); each
//     executed cycle drains one bucket, and a jump drains the span it
//     skipped.
//
//   - The ready bitmap, once its wakeup has passed. Ready entries stay in
//     the bitmap across cycles when issue width or memory ports run out,
//     exactly like the legacy queue kept them.
//
// Age-priority arbitration survives the restructuring because the bitmaps
// are indexed by ring position: walking the live window oldest-first and
// picking set bits visits candidates in exactly the order the legacy
// age-ordered queue scan did.
//
// One corner keeps the exact legacy predicate: depReady treats a producer
// whose index has fallen ROBSize behind the tail as ready regardless of
// its wakeup horizon ("long retired; its ring slot has been reused"),
// which can strike strictly between a producer's completion and the end
// of its wakeup window and make a cached wakeup time pessimistic. When
// resolve detects that possibility it arms a flip threshold — the
// smallest tail value at which a still-future producer could cross the
// horizon — on the flip watch list. When the tail reaches the threshold,
// the entry moves from the wheel to the flip bitmap, whose (rare) members
// are re-evaluated against depReady every cycle, so issue timing is
// bit-identical to the legacy scan.

// Core carries the state of one simulation run and owns the scratch arenas
// — ROB ring, scheduler rings and wheel, fetch ring, delivery block — that
// the run works in. The zero value is ready to use; Run sizes (or re-sizes) the
// arenas to the configuration and reuses whatever capacity earlier runs
// left behind, so a Core that simulates thousands of design points in an
// annealing chain allocates only when a new configuration outgrows every
// previous one. A Core is not safe for concurrent use; callers that fan
// out keep one per worker (see evalengine's runner pool).
//
// Stale arena contents never leak between runs: every ROB slot is fully
// overwritten at dispatch before any stage reads it, the scheduler's chain
// heads, bitmaps and wheel buckets are cleared at reset (its per-slot links
// are written before they are read), the fetch ring is consumed strictly
// between its cursors, and the delivery block is read only up to the count
// the source returned.
type Core struct {
	p    Params
	gen  workload.Source
	pred bpred.Predictor
	mem  *cache.Hierarchy

	rob      []robEntry // power-of-two ring over absolute instruction index
	robMask  uint64
	lsqCount int

	// Event-driven scheduler state (see the package comment block above
	// Core). The per-entry arrays are rings parallel to rob, indexed by
	// idx&robMask; a slot's fields are only meaningful for the waiting
	// population that owns them and are rewritten before reuse.
	waiterHead []uint64 // producer slot -> chain of consumers blocked on it (0 = none)
	waiterNext []uint64 // blocked consumer slot -> next consumer in the same chain
	wheelNext  []uint64 // wheel-resident slot -> next entry in its bucket
	wakeAt     []int64  // wheel-resident slot -> cached wakeup time (its bucket key)
	auxFlip    []uint64 // wheel-resident slot -> armed flip-tail threshold (0 = none)
	readyMask  []uint64 // ring bitmap: wakeup passed, awaiting width/ports
	flipMask   []uint64 // ring bitmap: flip fired, exact depReady predicate governs
	wheelHead  []uint64 // wake wheel: bucket t&wheelMask holds entries waking at cycle t
	wheelMask  uint64
	lastDrain  int64 // latest cycle whose wheel bucket has been drained
	readyCount int
	flipCount  int
	wheelCount int
	flipWatch  []uint64 // armed entries, checked against the tail as dispatch advances it
	iqCount    int      // waiting instructions: the IQ-capacity dispatch gate

	head, tail uint64 // ROB window: [head+1, tail] are in flight (1-based)

	// Front-end state. The fetch queue is a power-of-two ring consumed at
	// fqHead and filled at fqTail; occupancy is fqTail-fqHead.
	fetchQ         []fetched
	fqMask         uint64
	fqHead, fqTail uint64
	fetchedCount   uint64
	stalled        bool  // fetch blocked on an unresolved mispredict
	resumeAt       int64 // cycle fetch may resume (stall cleared at issue)
	total          uint64

	// Delivery block: instructions pulled from the source in batches, in
	// structure-of-arrays layout. blk points at ownBlk for scalar runs and
	// at a MultiCore's shared block in lockstep runs; batchPos/batchLen
	// are this core's cursor over it.
	blk                *workload.Block
	ownBlk             workload.Block
	batchPos, batchLen int
	delivered          uint64 // instructions pulled from the source so far
	srcDone            bool   // source exhausted (not the repo's sources)

	// Mid-cycle pause state. When the delivery block runs dry inside a
	// fetch loop, the core parks the fetch cursor and returns to its
	// driver for a refill (Run for scalar cores, MultiCore.Run for
	// lockstep lanes); the next runSlab call resumes the interrupted
	// fetch without re-running the cycle's earlier stages. Fetch is the
	// last stage call of a cycle, so the pause point is clean.
	paused         bool
	pauseN         int
	pauseTaken     bool
	pausedProgress bool

	cycle     int64
	committed uint64

	loadsL1, loadsL2, loadsMem uint64

	// Introspection state (see cpi.go). intro is the sticky configuration;
	// the rest is per-run. lastCommits and dispBlock are written every
	// cycle whether or not introspection is armed — unconditional scalar
	// stores, cheaper than a branch — and read only by classify. intervals
	// keeps its capacity across runs; it sits last, off the per-cycle
	// fields' cache lines.
	intro       *Introspection
	cpi         CPIStack
	cpiOn       bool
	sampleEvery uint64
	nextSample  uint64
	lastCommits int
	dispBlock   uint8
	intervals   []IntervalRecord
}

// fetched is one front-end instruction in flight toward dispatch. Only the
// fields dispatch consumes are carried: PC and direction are spent on the
// predictor at fetch, and addr is copied only for memory operations (it is
// stale ring content otherwise, and never read).
type fetched struct {
	op         workload.Op
	mispred    bool
	src1, src2 int32
	addr       uint64
	readyAt    int64 // cycle the instruction reaches dispatch
}

// Run simulates n instructions of the source's stream on a core with the
// given parameters, branch predictor and cache hierarchy. The source (a
// synthetic generator or a trace replay), predictor and hierarchy are
// consumed (their state advances by exactly n instructions); pass fresh
// ones for independent runs. Allocation-free callers reuse a Core via its
// Run method instead.
func Run(p Params, gen workload.Source, pred bpred.Predictor, mem *cache.Hierarchy, n int) (Result, error) {
	var c Core
	return c.Run(p, gen, pred, mem, n)
}

// pow2 returns the smallest power of two >= n (n >= 1).
func pow2(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// reset sizes the scratch arenas for the configuration, reusing capacity
// left by earlier runs, and rewinds all per-run state.
func (c *Core) reset(p Params, gen workload.Source, pred bpred.Predictor, mem *cache.Hierarchy, n int) {
	c.p = p
	c.gen = gen
	c.pred = pred
	c.mem = mem

	// The ROB ring must hold every index in the fresh window
	// [tail-ROBSize, tail] without collision, so it needs ROBSize+1
	// slots, rounded up to a power of two for mask indexing. Slots are
	// never read before dispatch overwrites them, so stale contents need
	// no clearing.
	// Only power-of-two lengths are ever allocated, so a reslice of a
	// larger previous arena is itself a power of two and mask indexing
	// stays valid.
	if need := pow2(p.ROBSize + 1); cap(c.rob) < need {
		c.rob = make([]robEntry, need)
	} else {
		c.rob = c.rob[:need]
	}
	c.robMask = uint64(len(c.rob) - 1)

	// Scheduler rings parallel to the ROB ring. Chain links and per-slot
	// wakeup fields are written before any read that follows them; only
	// the chain heads, the bitmaps and the wheel buckets carry state
	// across slots and need clearing.
	ringLen := len(c.rob)
	if cap(c.waiterHead) < ringLen {
		c.waiterHead = make([]uint64, ringLen)
		c.waiterNext = make([]uint64, ringLen)
		c.wheelNext = make([]uint64, ringLen)
		c.wakeAt = make([]int64, ringLen)
		c.auxFlip = make([]uint64, ringLen)
	} else {
		c.waiterHead = c.waiterHead[:ringLen]
		c.waiterNext = c.waiterNext[:ringLen]
		c.wheelNext = c.wheelNext[:ringLen]
		c.wakeAt = c.wakeAt[:ringLen]
		c.auxFlip = c.auxFlip[:ringLen]
		for i := range c.waiterHead {
			c.waiterHead[i] = 0
		}
	}
	words := (ringLen + 63) / 64
	if cap(c.readyMask) < words {
		c.readyMask = make([]uint64, words)
		c.flipMask = make([]uint64, words)
	} else {
		c.readyMask = c.readyMask[:words]
		c.flipMask = c.flipMask[:words]
		for i := range c.readyMask {
			c.readyMask[i] = 0
			c.flipMask[i] = 0
		}
	}
	// The wake wheel must span the longest possible now-to-wakeup
	// distance: worst-case execution latency plus the wakeup propagation
	// (Validate orders the cache latencies, so LatMem dominates the
	// memory side), with slack so a bucket is never reused before it
	// drains.
	maxLat := p.MulLat
	if p.DivLat > maxLat {
		maxLat = p.DivLat
	}
	if m := p.LSQStages + p.LatMem; m > maxLat {
		maxLat = m
	}
	span := (p.SchedStages - 1) + maxLat + p.WakeupExtra + 2
	if need := pow2(span); cap(c.wheelHead) < need {
		c.wheelHead = make([]uint64, need)
	} else {
		c.wheelHead = c.wheelHead[:need]
		for i := range c.wheelHead {
			c.wheelHead[i] = 0
		}
	}
	c.wheelMask = uint64(len(c.wheelHead) - 1)
	c.lastDrain = -1
	c.readyCount, c.flipCount, c.wheelCount = 0, 0, 0
	c.flipWatch = c.flipWatch[:0]
	c.iqCount = 0

	maxBuf := (p.FrontEndStages + 2) * p.Width
	if need := pow2(maxBuf); len(c.fetchQ) < need {
		c.fetchQ = make([]fetched, need)
	}
	c.fqMask = uint64(len(c.fetchQ) - 1)
	c.fqHead, c.fqTail = 0, 0

	c.blk = &c.ownBlk
	c.batchPos, c.batchLen = 0, 0
	c.delivered = 0
	c.srcDone = false
	c.paused = false
	c.pauseN, c.pauseTaken, c.pausedProgress = 0, false, false

	c.lsqCount = 0
	c.head, c.tail = 0, 0
	c.fetchedCount = 0
	c.stalled = false
	c.resumeAt = -1
	c.total = uint64(n)
	c.cycle = 0
	c.committed = 0
	c.loadsL1, c.loadsL2, c.loadsMem = 0, 0, 0
	c.resetIntrospection()
}

// Run simulates n instructions on this core's scratch arenas, resetting
// them first. Semantics and results are identical to the package-level Run;
// the only difference is buffer reuse across calls.
func (c *Core) Run(p Params, gen workload.Source, pred bpred.Predictor, mem *cache.Hierarchy, n int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("pipeline: instruction count %d must be positive", n)
	}
	c.reset(p, gen, pred, mem, n)

	c.refill()
	for {
		needRefill, err := c.runSlab()
		if err != nil {
			c.release()
			return Result{}, err
		}
		if !needRefill {
			break
		}
		c.refill()
	}

	res := c.result()
	c.release()
	return res, nil
}

// result assembles the run's summary from the core's counters and the
// external predictor/cache state, emitting the closing interval record
// first (while those references are still attached).
func (c *Core) result() Result {
	c.finishIntrospection()
	return Result{
		Instructions: c.committed,
		Cycles:       uint64(c.cycle),
		Branch:       c.pred.Stats(),
		L1:           c.mem.L1().Stats(),
		L2:           c.mem.L2().Stats(),
		LoadsL1:      c.loadsL1,
		LoadsL2:      c.loadsL2,
		LoadsMem:     c.loadsMem,
	}
}

// runSlab advances the pipeline until the run completes or the delivery
// block runs dry mid-fetch, in which case it reports that the driver must
// refill the block (and, for lockstep lanes, let the sibling cores catch
// up) before calling runSlab again. The cycle interrupted by a refill is
// resumed exactly where it paused, so slab boundaries are invisible to the
// simulated machine.
func (c *Core) runSlab() (needRefill bool, err error) {
	for c.committed < c.total {
		progress := false
		resumed := false
		if c.paused {
			c.paused = false
			resumed = true
			progress = c.pausedProgress
		} else {
			progress = c.commit()
			progress = c.issue() || progress
			progress = c.dispatch() || progress
		}
		fetchProg, refill := c.fetch(resumed)
		progress = progress || fetchProg
		if refill {
			c.paused = true
			c.pausedProgress = progress
			return true, nil
		}
		if !progress {
			next := c.nextEvent()
			if next <= c.cycle {
				// No progress and no pending event: the model is
				// wedged, which indicates a bug, not a workload
				// property.
				return false, fmt.Errorf("pipeline: deadlock at cycle %d (%d/%d committed)",
					c.cycle, c.committed, c.total)
			}
			if c.cpiOn {
				// The machine is frozen across the jumped span, so one
				// classification covers every skipped cycle.
				c.cpi[c.classify()] += uint64(next - c.cycle)
			}
			c.cycle = next
			continue
		}
		if c.cpiOn {
			c.cpi[c.classify()]++
		}
		c.cycle++
	}
	return false, nil
}

// release drops the run's external references (source, predictor, caches,
// shared delivery block) so a pooled Core does not pin them alive between
// runs; the scratch arenas stay for reuse.
func (c *Core) release() {
	c.gen = nil
	c.pred = nil
	c.mem = nil
	c.blk = nil
}

func (c *Core) slot(idx uint64) *robEntry { return &c.rob[idx&c.robMask] }

// commit retires up to Width completed instructions from the ROB head.
func (c *Core) commit() bool {
	n := 0
	for n < c.p.Width && c.head < c.tail {
		e := c.slot(c.head + 1)
		if e.state != stDone || e.doneAt > c.cycle {
			break
		}
		if e.isMem {
			c.lsqCount--
		}
		c.head++
		c.committed++
		n++
	}
	c.lastCommits = n
	if c.committed >= c.nextSample {
		c.sampleIntervals()
	}
	return n > 0
}

// depReady reports whether the producer at absolute index dep allows a
// consumer to issue this cycle: the producer has issued, its result is
// available, and the wakeup loop has had WakeupExtra cycles to propagate.
// Retirement does not waive the wakeup latency — it is a property of the
// scheduling loop, not of the producer's ROB residency — so recently
// retired producers (whose ring slot is still fresh) are timed the same
// way. This is the slow-path predicate the memoized issue scan falls back
// to; its semantics are the reference the fast path must match.
func (c *Core) depReady(dep uint64) bool {
	if dep == 0 {
		return true
	}
	if dep+uint64(c.p.ROBSize) < c.tail {
		return true // long retired; its ring slot has been reused
	}
	e := c.slot(dep)
	return e.state == stDone && e.doneAt+int64(c.p.WakeupExtra) <= c.cycle
}

// resolveEnqueue files a dispatched (or just-woken) instruction under the
// next event that can affect it. If any producer has not issued — exactly
// when depReady would answer false regardless of timing — the entry joins
// that producer's waiter chain and is revisited the cycle the producer
// issues. Otherwise its wakeup time is final: max(doneAt+WakeupExtra) over
// the producers still inside the depReady horizon (producers already
// retired out of it, or absent, contribute nothing), and the entry moves
// to the wake wheel or, when the wakeup has already passed, straight to
// the ready bitmap. A flip threshold is armed when a still-future producer
// could leave the horizon before the cached wakeup (see the scheduler
// comment block).
func (c *Core) resolveEnqueue(idx uint64, e *robEntry) {
	wake := int64(c.p.WakeupExtra)
	robSize := uint64(c.p.ROBSize)
	width := uint64(c.p.Width)
	var ready int64
	var flipTail uint64
	if d := e.dep1; d != 0 && d+robSize >= c.tail {
		de := c.slot(d)
		if de.state != stDone {
			s := idx & c.robMask
			ds := d & c.robMask
			c.waiterNext[s] = c.waiterHead[ds]
			c.waiterHead[ds] = idx
			return
		}
		t := de.doneAt + wake
		if t > ready {
			ready = t
		}
		// The producer can flip to "long retired" before its wakeup
		// horizon only if the tail can travel that far in the remaining
		// cycles (it advances at most Width per cycle). WakeupExtra == 0
		// leaves no window at all.
		if wake > 0 && t > c.cycle &&
			c.tail+uint64(t-1-c.cycle)*width > d+robSize {
			flipTail = d + robSize + 1
		}
	}
	if d := e.dep2; d != 0 && d+robSize >= c.tail {
		de := c.slot(d)
		if de.state != stDone {
			s := idx & c.robMask
			ds := d & c.robMask
			c.waiterNext[s] = c.waiterHead[ds]
			c.waiterHead[ds] = idx
			return
		}
		t := de.doneAt + wake
		if t > ready {
			ready = t
		}
		if wake > 0 && t > c.cycle &&
			c.tail+uint64(t-1-c.cycle)*width > d+robSize {
			if ft := d + robSize + 1; flipTail == 0 || ft < flipTail {
				flipTail = ft
			}
		}
	}
	s := idx & c.robMask
	if ready <= c.cycle {
		// Wakeup already passed (a flip threshold is only ever armed on a
		// future wakeup, so none exists here): ready for the next scan.
		c.readyMask[s>>6] |= 1 << (s & 63)
		c.readyCount++
		return
	}
	c.wakeAt[s] = ready
	c.auxFlip[s] = flipTail
	b := uint64(ready) & c.wheelMask
	c.wheelNext[s] = c.wheelHead[b]
	c.wheelHead[b] = idx
	c.wheelCount++
	if flipTail != 0 {
		c.flipWatch = append(c.flipWatch, idx)
	}
}

// drainWheel moves every entry whose wakeup cycle has arrived from its
// wheel bucket to the ready bitmap. Called once per executed cycle (at the
// top of issue); a cycle jump drains the skipped span in one sweep,
// clamped to one lap — beyond that every bucket is past due anyway.
func (c *Core) drainWheel() {
	if c.lastDrain >= c.cycle {
		return
	}
	from := c.lastDrain + 1
	c.lastDrain = c.cycle
	if c.wheelCount == 0 {
		return
	}
	if c.cycle-from > int64(c.wheelMask) {
		from = c.cycle - int64(c.wheelMask)
	}
	for t := from; t <= c.cycle; t++ {
		b := uint64(t) & c.wheelMask
		idx := c.wheelHead[b]
		if idx == 0 {
			continue
		}
		c.wheelHead[b] = 0
		for idx != 0 {
			s := idx & c.robMask
			c.readyMask[s>>6] |= 1 << (s & 63)
			c.readyCount++
			c.wheelCount--
			// Disarm any flip threshold: once the cached wakeup has
			// passed, readiness is immediate and a producer leaving the
			// depReady horizon can no longer change it. checkFlips must
			// not try to unlink an entry that already left the wheel.
			c.auxFlip[s] = 0
			idx = c.wheelNext[s]
		}
	}
}

// unlinkWheel removes a waiting entry from its wake-wheel bucket (it is
// guaranteed to be there: only wheel residents carry armed thresholds,
// and an issued entry's threshold is spent before its slot recycles).
func (c *Core) unlinkWheel(idx, s uint64) {
	b := uint64(c.wakeAt[s]) & c.wheelMask
	cur := c.wheelHead[b]
	if cur == idx {
		c.wheelHead[b] = c.wheelNext[s]
	} else {
		for {
			ps := cur & c.robMask
			cur = c.wheelNext[ps]
			if cur == idx {
				c.wheelNext[ps] = c.wheelNext[s]
				break
			}
		}
	}
	c.wheelCount--
}

// checkFlips retires or fires the armed flip thresholds after dispatch
// has advanced the tail. A fired entry leaves the wheel for the flip
// bitmap, where the issue scan applies the exact depReady predicate every
// cycle — from the same cycle the legacy scan would first have seen the
// crossed threshold. Entries that issued at their cached wakeup first, or
// whose ring slot has recycled (the entry is long retired), drop out.
func (c *Core) checkFlips() {
	if len(c.flipWatch) == 0 {
		return
	}
	ringLen := uint64(len(c.rob))
	w := 0
	for _, idx := range c.flipWatch {
		if idx+ringLen <= c.tail {
			continue // slot recycled: the armed entry is long retired
		}
		s := idx & c.robMask
		if c.rob[s].state == stDone || c.auxFlip[s] == 0 {
			continue // issued at its wakeup, or already fired
		}
		if c.tail < c.auxFlip[s] {
			c.flipWatch[w] = idx
			w++
			continue
		}
		c.unlinkWheel(idx, s)
		c.auxFlip[s] = 0
		c.flipMask[s>>6] |= 1 << (s & 63)
		c.flipCount++
	}
	c.flipWatch = c.flipWatch[:w]
}

// issue selects up to Width ready instructions, oldest first, and begins
// their execution. The candidates are exactly the set bits of the ready
// and flip bitmaps — entries the wake wheel and the waiter chains have
// already filtered by event — so a cycle's cost scales with the number of
// instructions actually waking, not with the number waiting.
func (c *Core) issue() bool {
	c.drainWheel()
	if c.readyCount == 0 && c.flipCount == 0 {
		return false
	}
	issued := 0
	memIssued := 0
	width := c.p.Width
	memPorts := c.p.MemPorts
	cycle := c.cycle
	// The live window [head+1, tail] occupies at most one lap of the
	// ring, so walking its (at most two) contiguous position segments in
	// ascending order visits entries oldest first — the legacy queue's
	// age-priority arbitration. All set bits belong to live waiting
	// entries: issue clears an entry's bit before it can retire, and a
	// slot's bit is clear when the slot recycles.
	ringLen := uint64(len(c.rob))
	lo := (c.head + 1) & c.robMask
	end := lo + (c.tail - c.head)
	var hi2 uint64
	if end > ringLen {
		hi2 = end - ringLen
		end = ringLen
	}
	for seg := 0; seg < 2; seg++ {
		from, to := lo, end
		if seg == 1 {
			if hi2 == 0 {
				break
			}
			from, to = 0, hi2
		}
		for wi := from >> 6; wi <= (to-1)>>6; wi++ {
			m := c.readyMask[wi] | c.flipMask[wi]
			if m == 0 {
				continue
			}
			if wi == from>>6 {
				m &= ^uint64(0) << (from & 63)
			}
			if wi == (to-1)>>6 {
				m &= ^uint64(0) >> (63 - ((to - 1) & 63))
			}
			for m != 0 {
				b := uint64(bits.TrailingZeros64(m))
				m &^= 1 << b
				pos := wi<<6 | b
				e := &c.rob[pos]
				isFlip := c.flipMask[wi]&(1<<b) != 0
				if isFlip && !(c.depReady(e.dep1) && c.depReady(e.dep2)) {
					continue // flip fired but producers not ready yet
				}
				if e.isMem && memIssued >= memPorts {
					continue // ready but the memory ports are spent
				}
				// Issue: the completion time is fixed now; consumers
				// and commit compare against doneAt.
				var lat int
				if e.isMem {
					lat = c.memLatency(e) // slow path: cache probe
				} else {
					lat = c.aluLatency(e.op) // fast path: latency table
				}
				if isFlip {
					c.flipMask[wi] &^= 1 << b
					c.flipCount--
				} else {
					c.readyMask[wi] &^= 1 << b
					c.readyCount--
				}
				e.state = stDone
				e.doneAt = cycle + int64(lat)
				issued++
				c.iqCount--
				if e.isMem {
					memIssued++
				}
				if e.mispred {
					// Redirect: fetch resumes once the branch executes.
					c.resumeAt = e.doneAt
					c.stalled = false
				}
				// Wake this instruction's waiters: each either learns its
				// final wakeup (joining the wheel — its producer completes
				// strictly in the future, so never this cycle's scan) or
				// moves on to its other blocking producer.
				if wl := c.waiterHead[pos]; wl != 0 {
					c.waiterHead[pos] = 0
					for wl != 0 {
						ws := wl & c.robMask
						nxt := c.waiterNext[ws]
						c.resolveEnqueue(wl, &c.rob[ws])
						wl = nxt
					}
				}
				if issued >= width {
					// Issue bandwidth is spent; everything younger stays
					// waiting, in place, without inspection.
					return true
				}
			}
		}
	}
	return issued > 0
}

// aluLatency is the non-memory execution latency table — the issue loop's
// fast path, identical to the corresponding arms of the legacy execLatency
// switch.
func (c *Core) aluLatency(op workload.Op) int {
	sched := c.p.SchedStages - 1 // extra scheduling/regfile stages
	switch op {
	case workload.OpBranch:
		return sched + 1
	case workload.OpIMul:
		return sched + c.p.MulLat
	case workload.OpIDiv:
		return sched + c.p.DivLat
	default:
		return 1 // single-cycle ALU with full bypass
	}
}

// memLatency computes a memory operation's execution latency at issue,
// probing the cache hierarchy — the issue loop's slow path.
func (c *Core) memLatency(e *robEntry) int {
	sched := c.p.SchedStages - 1
	if e.op == workload.OpStore {
		// Stores retire through the write buffer; the cache access
		// happens now for contents modelling.
		c.mem.Access(e.addr, true)
		return sched + c.p.LSQStages
	}
	level := c.mem.Access(e.addr, false)
	var lat int
	switch level {
	case cache.LevelL1:
		lat = c.p.LatL1
		c.loadsL1++
		e.level = levelL1
	case cache.LevelL2:
		lat = c.p.LatL2
		c.loadsL2++
		e.level = levelL2
	default:
		lat = c.p.LatMem
		c.loadsMem++
		e.level = levelMem
	}
	return sched + c.p.LSQStages + lat
}

// dispatch moves up to Width front-end instructions into the backend.
func (c *Core) dispatch() bool {
	n := 0
	c.dispBlock = dispNone
	for n < c.p.Width && c.fqHead < c.fqTail {
		f := &c.fetchQ[c.fqHead&c.fqMask]
		if f.readyAt > c.cycle {
			break
		}
		if c.tail-c.head >= uint64(c.p.ROBSize) {
			c.dispBlock = dispROB
			break // ROB full
		}
		if c.iqCount >= c.p.IQSize {
			c.dispBlock = dispIQ
			break // IQ full
		}
		isMem := f.op == workload.OpLoad || f.op == workload.OpStore
		if isMem && c.lsqCount >= c.p.LSQSize {
			c.dispBlock = dispLSQ
			break // LSQ full
		}
		c.tail++
		e := c.slot(c.tail)
		*e = robEntry{
			op:      f.op,
			state:   stWaiting,
			mispred: f.mispred,
			isMem:   isMem,
			addr:    f.addr,
		}
		if d := f.src1; d > 0 && uint64(d) < c.tail {
			e.dep1 = c.tail - uint64(d)
		}
		if d := f.src2; d > 0 && uint64(d) < c.tail {
			e.dep2 = c.tail - uint64(d)
		}
		if isMem {
			c.lsqCount++
		}
		c.iqCount++
		c.resolveEnqueue(c.tail, e)
		c.fqHead++
		n++
	}
	if n > 0 {
		// The tail moved: any armed flip threshold it crossed governs
		// from the next cycle's scan — the same cycle the legacy scan
		// first compared against the advanced tail.
		c.checkFlips()
	}
	return n > 0
}

// refill pulls the next slab of instructions from the source into the
// core's own delivery block. The source is advanced by exactly the
// instructions the run will fetch: the final slab is capped at the
// remaining total, so a run consumes n instructions from its source in
// batch mode just as it does in scalar mode. Lockstep lanes never refill —
// their shared block is filled once per slab by MultiCore.Run.
func (c *Core) refill() {
	want := batchSize
	if rem := int(c.total - c.delivered); rem < want {
		want = rem
	}
	got := 0
	if want > 0 {
		got = c.ownBlk.Fill(c.gen, want)
	}
	c.batchPos, c.batchLen = 0, got
	c.delivered += uint64(got)
	if got == 0 {
		c.srcDone = true
	}
}

// fetch brings up to Width instructions per cycle into the front end,
// predicting branches and stalling on mispredictions until resolution.
// Instructions arrive through the delivery block — one NextBatch call per
// batchSize instructions — instead of one interface call each; since the
// source's stream is deterministic and independent of pipeline state, the
// block holds exactly the instructions scalar fetch would have drawn. When
// the block runs dry mid-cycle, fetch parks its cursor and reports that a
// refill is needed; with resumed it continues the interrupted cycle.
func (c *Core) fetch(resumed bool) (progress, needRefill bool) {
	n, takenSeen := 0, false
	if resumed {
		n, takenSeen = c.pauseN, c.pauseTaken
	} else {
		if c.stalled || c.cycle < c.resumeAt {
			return false, false
		}
		if c.fetchedCount >= c.total {
			return false, false
		}
	}
	blk := c.blk
	// Bound the fetch buffer so the front end does not run arbitrarily
	// far ahead of dispatch.
	maxBuf := uint64((c.p.FrontEndStages + 2) * c.p.Width)
	for n < c.p.Width && c.fqTail-c.fqHead < maxBuf && c.fetchedCount < c.total {
		if c.batchPos == c.batchLen {
			if c.srcDone {
				break // source exhausted (not the repo's sources)
			}
			c.pauseN, c.pauseTaken = n, takenSeen
			return n > 0, true
		}
		pos := c.batchPos
		c.batchPos++
		c.fetchedCount++
		op := blk.Op[pos]
		f := &c.fetchQ[c.fqTail&c.fqMask]
		f.op = op
		f.mispred = false
		f.src1 = blk.Src1Dist[pos]
		f.src2 = blk.Src2Dist[pos]
		f.readyAt = c.cycle + int64(c.p.FrontEndStages)
		switch op {
		case workload.OpLoad, workload.OpStore:
			f.addr = blk.Addr[pos]
		case workload.OpBranch:
			taken := blk.Taken[pos]
			predTaken := c.pred.Predict(blk.PC[pos])
			c.pred.Update(blk.PC[pos], taken)
			if predTaken != taken {
				f.mispred = true
			}
			c.fqTail++
			n++
			if f.mispred {
				// Everything after this branch is a redirect target;
				// fetch stalls until the branch executes.
				c.stalled = true
				return true, false
			}
			if taken {
				// One taken-branch redirection per cycle.
				if takenSeen {
					return true, false
				}
				takenSeen = true
			}
			continue
		}
		c.fqTail++
		n++
	}
	return n > 0, false
}

// nextEvent returns the earliest future cycle at which state can change:
// the head instruction completing (enabling commit), the next wake-wheel
// bucket with an occupant (enabling issue), a fired-flip entry's exact
// wakeup, a front-end instruction reaching dispatch, or a redirect
// resuming fetch. Waiter-chained entries need no candidate of their own:
// their producers sit in the same scheduler, bottoming out at some wheel
// or flip entry, and nothing issues during a jump window. Flip thresholds
// cannot fire during a jump either — the tail only moves when dispatch
// makes progress — so wheel residents are timed by their cached wakeup
// and fired entries by the exact legacy predicate.
func (c *Core) nextEvent() int64 {
	next := int64(1<<62 - 1)
	cycle := c.cycle
	if c.head < c.tail {
		if e := c.slot(c.head + 1); e.state == stDone && e.doneAt > cycle && e.doneAt < next {
			next = e.doneAt
		}
	}
	if c.flipCount > 0 {
		for wi, m := range c.flipMask {
			for m != 0 {
				b := uint64(bits.TrailingZeros64(m))
				m &^= 1 << b
				// A producer already flipped out of the depReady horizon;
				// the entry's effective wakeup is governed by the
				// producers still inside it.
				t := c.pendingWake(&c.rob[uint64(wi)<<6|b])
				if t > cycle && t < next {
					next = t
				}
			}
		}
	}
	if c.wheelCount > 0 {
		// Every wheel resident's wakeup lies within one lap ahead, so
		// the first occupied bucket is the earliest wakeup.
		for t := cycle + 1; t <= cycle+int64(c.wheelMask)+1; t++ {
			if c.wheelHead[uint64(t)&c.wheelMask] != 0 {
				if t < next {
					next = t
				}
				break
			}
		}
	}
	if c.fqHead < c.fqTail {
		if t := c.fetchQ[c.fqHead&c.fqMask].readyAt; t > cycle && t < next {
			next = t
		}
	}
	if !c.stalled && c.resumeAt > cycle && c.resumeAt < next {
		next = c.resumeAt
	}
	return next
}

// pendingWake returns the latest wakeup horizon over the entry's producers
// that are still inside the depReady window — the exact cycle the legacy
// predicate turns true for it, given that the tail (and so the flip state)
// cannot move before then.
func (c *Core) pendingWake(e *robEntry) int64 {
	wake := int64(c.p.WakeupExtra)
	robSize := uint64(c.p.ROBSize)
	var t int64
	if d := e.dep1; d != 0 && d+robSize >= c.tail {
		if de := c.slot(d); de.state == stDone {
			if v := de.doneAt + wake; v > t {
				t = v
			}
		}
	}
	if d := e.dep2; d != 0 && d+robSize >= c.tail {
		if de := c.slot(d); de.state == stDone {
			if v := de.doneAt + wake; v > t {
				t = v
			}
		}
	}
	return t
}
