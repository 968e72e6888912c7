// CPI-stack cycle accounting and interval sampling — the core's
// introspection layer. A Result says how many cycles a configuration spent
// on a workload; the CPI stack says where they went: every simulated cycle
// is attributed to exactly one bucket, so the per-bucket counts sum exactly
// to Result.Cycles and the stack decomposes IPC loss into its causes
// (Eyerman et al.'s interval analysis is the lineage; the buckets here are
// the ones the paper's exploration parameters act on).
//
// Attribution is commit-centric and deterministic. A cycle that commits at
// least one instruction is base work. A zero-commit cycle is charged to
// whatever blocks the ROB head: an empty ROB is the front end's fault
// (a redirect in flight is mispredict penalty, anything else is a fetch
// bubble); an issued-but-incomplete head load is charged to the level that
// serves it; an issued store to the store port; an issued mispredicted
// branch to the mispredict penalty; an unissued head with dispatch blocked
// on a full structure to that structure; everything else — dependence
// stalls, issue-width limits, long ALU ops — is issue-bound base time.
// When the event-driven scheduler jumps over a span of guaranteed-idle
// cycles, the machine state is frozen, so the whole span carries one
// classification — exactly what per-cycle stepping would have produced.
//
// Everything here is off unless SetIntrospection arms it; the disabled
// paths cost one predictable branch per cycle and allocate nothing.

package pipeline

import (
	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/workload"
)

// Bucket is one CPI-stack component.
type Bucket uint8

const (
	// BucketBase is committed work plus issue-bound time: dependence
	// stalls, spent issue width, and non-memory execution latency.
	BucketBase Bucket = iota
	// BucketFetch is front-end starvation with no redirect in flight:
	// pipeline fill and post-redirect refill bubbles.
	BucketFetch
	// BucketMispredict is branch misprediction penalty: fetch stalled on an
	// unresolved mispredict, or the mispredicted branch executing at the
	// ROB head.
	BucketMispredict
	// BucketLoadL1, BucketLoadL2 and BucketLoadMem are load stalls, charged
	// by the level that serves the head load.
	BucketLoadL1
	BucketLoadL2
	BucketLoadMem
	// BucketROBFull, BucketIQFull and BucketLSQFull are dispatch
	// back-pressure: the front end had an instruction ready but the
	// structure was full (and no head-load stall explains the cycle).
	BucketROBFull
	BucketIQFull
	BucketLSQFull
	// BucketStorePort is an issued store draining through the write buffer
	// at the ROB head.
	BucketStorePort

	// NumBuckets is the number of CPI-stack components.
	NumBuckets = int(BucketStorePort) + 1
)

// bucketNames uses underscores so every name is valid inside a Prometheus
// metric name and a JSON key alike.
var bucketNames = [NumBuckets]string{
	"base", "fetch", "mispredict",
	"load_l1", "load_l2", "load_mem",
	"rob_full", "iq_full", "lsq_full",
	"store_port",
}

// String names the bucket ("base", "load_l2", "rob_full", ...).
func (b Bucket) String() string {
	if int(b) < NumBuckets {
		return bucketNames[b]
	}
	return "invalid"
}

// BucketNames returns the bucket names in stack order — the canonical
// ordering every exporter and view shares.
func BucketNames() [NumBuckets]string { return bucketNames }

// CPIStack is a full cycle-accounting decomposition: Stack[b] cycles were
// attributed to bucket b, and the entries sum exactly to the run's cycle
// count.
type CPIStack [NumBuckets]uint64

// Cycles returns the total attributed cycles — equal to Result.Cycles for
// the run the stack came from.
func (s CPIStack) Cycles() uint64 {
	var total uint64
	for _, v := range s {
		total += v
	}
	return total
}

// Share returns bucket b's fraction of the attributed cycles (0 when the
// stack is empty).
func (s CPIStack) Share(b Bucket) float64 {
	total := s.Cycles()
	if total == 0 {
		return 0
	}
	return float64(s[b]) / float64(total)
}

// Map renders the stack as bucket-name -> cycles, the exchange form the
// evaluation spans of a trace use.
func (s CPIStack) Map() map[string]uint64 {
	m := make(map[string]uint64, NumBuckets)
	for b, v := range s {
		m[bucketNames[b]] = v
	}
	return m
}

// StackFromMap reverses Map, ignoring unknown keys.
func StackFromMap(m map[string]uint64) CPIStack {
	var s CPIStack
	for b, name := range bucketNames {
		s[b] = m[name]
	}
	return s
}

// IntervalRecord is one cumulative introspection snapshot, taken when the
// committed-instruction count crosses a sampling boundary and once more at
// the end of the run. Fields are running totals since cycle zero — the
// record taken at commit time in cycle t covers cycles [0, t), so
// Stack.Cycles() == Cycles holds exactly — and consumers difference
// consecutive records to recover per-interval IPC, miss and mispredict
// rates. Deliberately lane-free: a lockstep lane and a scalar run of the
// same configuration produce identical record sequences.
type IntervalRecord struct {
	Instructions uint64      `json:"instructions"`
	Cycles       uint64      `json:"cycles"`
	Stack        CPIStack    `json:"stack"`
	Branch       bpred.Stats `json:"branch"`
	L1           cache.Stats `json:"l1"`
	L2           cache.Stats `json:"l2"`
	LoadsL1      uint64      `json:"loads_l1"`
	LoadsL2      uint64      `json:"loads_l2"`
	LoadsMem     uint64      `json:"loads_mem"`
}

// IntervalRecorder consumes interval snapshots as the simulation crosses
// sampling boundaries. Implementations must not retain the record past the
// call (it is reused) and must not allocate if the caller's zero-alloc
// guarantees matter to them; internal/introspect provides the standard
// ring-buffered implementation.
type IntervalRecorder interface {
	RecordInterval(IntervalRecord)
}

// Introspection arms the core's observation layer. A nil *Introspection
// (the default) disables everything; a non-nil one with Interval == 0 or a
// nil Recorder collects the CPI stack alone; a positive Interval plus a
// Recorder additionally emits one cumulative IntervalRecord each time the
// committed-instruction count crosses a multiple of Interval, and a final
// one at run end. Introspection never changes simulated behavior: Result
// is bit-identical armed or not.
type Introspection struct {
	// Interval is the sampling period in committed instructions.
	Interval int
	// Recorder receives the snapshots.
	Recorder IntervalRecorder
}

// SetIntrospection arms (or, with nil, disarms) introspection on this
// core. The setting is sticky across runs — it configures the observer,
// not one run — and takes effect at the next Run.
func (c *Core) SetIntrospection(intro *Introspection) { c.intro = intro }

// LastCPI returns the CPI stack of the most recent run (zeros when
// introspection was off). Valid until the next Run.
func (c *Core) LastCPI() CPIStack { return c.cpi }

// sampleOff parks nextSample beyond any reachable instruction count, so
// the disabled path is one always-false compare per cycle.
const sampleOff = 1 << 62

// dispatch-block reasons, recorded each cycle for classification.
const (
	dispNone uint8 = iota
	dispROB
	dispIQ
	dispLSQ
)

// load-serving levels, recorded on the ROB entry at issue.
const (
	levelNone uint8 = iota
	levelL1
	levelL2
	levelMem
)

// resetIntrospection rewinds the per-run introspection state from the
// sticky configuration; called by reset.
func (c *Core) resetIntrospection() {
	c.cpi = CPIStack{}
	c.lastCommits = 0
	c.dispBlock = dispNone
	c.cpiOn = c.intro != nil
	c.sampleEvery = 0
	c.nextSample = sampleOff
	if c.intro != nil && c.intro.Interval > 0 && c.intro.Recorder != nil {
		c.sampleEvery = uint64(c.intro.Interval)
		c.nextSample = c.sampleEvery
	}
}

// classify names the bucket that owns the cycle the core is completing —
// or, on a jump, the frozen span. Called only when introspection is armed,
// after the cycle's stages have run, and never on a cycle that pauses for
// a refill (the resumed iteration finishes that cycle and classifies it
// once).
func (c *Core) classify() Bucket {
	if c.lastCommits > 0 {
		return BucketBase
	}
	if c.head == c.tail {
		// Empty window: the front end owns the cycle.
		if c.stalled || c.cycle < c.resumeAt {
			return BucketMispredict
		}
		return BucketFetch
	}
	e := c.slot(c.head + 1)
	if e.state == stDone {
		// The head has issued and its completion time is fixed; charge the
		// wait to what it is executing.
		if e.isMem {
			if e.op == workload.OpStore {
				return BucketStorePort
			}
			switch e.level {
			case levelL2:
				return BucketLoadL2
			case levelMem:
				return BucketLoadMem
			default:
				return BucketLoadL1
			}
		}
		if e.mispred {
			return BucketMispredict
		}
		return BucketBase
	}
	// The head has not issued. If dispatch was blocked on a full structure
	// this cycle, back-pressure owns it; otherwise it is a dependence or
	// issue-bandwidth stall — issue-bound base time.
	switch c.dispBlock {
	case dispROB:
		return BucketROBFull
	case dispIQ:
		return BucketIQFull
	case dispLSQ:
		return BucketLSQFull
	}
	return BucketBase
}

// sampleIntervals emits one cumulative snapshot and advances the sampling
// threshold past the current committed count. Called from commit when the
// boundary is crossed; a wide commit that crosses several boundaries at
// once still emits a single record (the snapshots are cumulative, so the
// intermediate ones would carry no extra information). A boundary that
// lands on the run's final instruction is left to the closing record,
// which carries the complete end-of-run totals.
func (c *Core) sampleIntervals() {
	if c.committed < c.total {
		c.intro.Recorder.RecordInterval(c.snapshot())
	}
	for c.nextSample <= c.committed {
		c.nextSample += c.sampleEvery
	}
}

// snapshot assembles the cumulative interval record at the current commit
// point: every cycle in [0, c.cycle) is attributed, so the stack sums
// exactly to Cycles.
func (c *Core) snapshot() IntervalRecord {
	return IntervalRecord{
		Instructions: c.committed,
		Cycles:       uint64(c.cycle),
		Stack:        c.cpi,
		Branch:       c.pred.Stats(),
		L1:           c.mem.L1().Stats(),
		L2:           c.mem.L2().Stats(),
		LoadsL1:      c.loadsL1,
		LoadsL2:      c.loadsL2,
		LoadsMem:     c.loadsMem,
	}
}

// finishIntrospection emits the closing interval record — the end-of-run
// totals, identical to the run's Result — when sampling is armed. Called
// once per run, before the external references are released.
func (c *Core) finishIntrospection() {
	if c.sampleEvery == 0 {
		return
	}
	c.intro.Recorder.RecordInterval(c.snapshot())
}
