package pipeline

import (
	"testing"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// cpiParams are the configurations the accounting property tests sweep:
// the lane variants (width, IQ, wakeup, ROB, latency, ports, front end)
// plus deliberately starved shapes that force the back-pressure buckets.
func cpiParams() []Params {
	ps := laneParams(8)
	tiny := baseParams()
	tiny.Width, tiny.ROBSize, tiny.IQSize, tiny.LSQSize = 1, 8, 4, 2
	deep := baseParams()
	deep.FrontEndStages, deep.SchedStages, deep.WakeupExtra = 14, 4, 3
	return append(ps, tiny, deep)
}

// runWithCPI simulates n instructions of prof on a fresh armed core and
// returns the result plus its CPI stack.
func runWithCPI(t *testing.T, p Params, prof workload.Profile, n int, intro *Introspection) (Result, CPIStack) {
	t.Helper()
	res, stack, _ := runIntrospected(t, p, prof, n, intro)
	return res, stack
}

// runIntrospected is runWithCPI that also returns the run's interval
// series.
func runIntrospected(t *testing.T, p Params, prof workload.Profile, n int, intro *Introspection) (Result, CPIStack, []IntervalRecord) {
	t.Helper()
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := bpred.New(bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := cache.NewHierarchy(
		timing.CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32},
		timing.CacheGeom{Sets: 2048, Assoc: 4, BlockBytes: 128},
	)
	if err != nil {
		t.Fatal(err)
	}
	var core Core
	core.SetIntrospection(intro)
	res, err := core.Run(p, gen, pred, mem, n)
	if err != nil {
		t.Fatal(err)
	}
	return res, core.LastCPI(), core.LastIntervals()
}

// TestCPIStackSumsToCycles is the accounting invariant: with introspection
// armed, every simulated cycle lands in exactly one bucket, so the stack
// sums to Result.Cycles — across configurations, workloads, instruction
// counts, and both source kinds (generator and trace replay).
func TestCPIStackSumsToCycles(t *testing.T) {
	intro := &Introspection{}
	for _, name := range []string{"gcc", "mcf"} {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		for pi, p := range cpiParams() {
			for _, n := range []int{200, 1300, 20000} {
				res, stack := runWithCPI(t, p, prof, n, intro)
				if got := stack.Cycles(); got != res.Cycles {
					t.Errorf("%s cfg %d n=%d (generator): stack sums to %d, want Cycles=%d (stack %v)",
						name, pi, n, got, res.Cycles, stack)
				}

				// Trace-replay source: same invariant, identical stack.
				src, err := workload.NewGenerator(prof)
				if err != nil {
					t.Fatal(err)
				}
				tr := workload.NewTraceReaderFrom(src, n)
				pred, _ := bpred.New(bpred.DefaultConfig())
				mem, err := cache.NewHierarchy(
					timing.CacheGeom{Sets: 512, Assoc: 2, BlockBytes: 32},
					timing.CacheGeom{Sets: 2048, Assoc: 4, BlockBytes: 128},
				)
				if err != nil {
					t.Fatal(err)
				}
				var core Core
				core.SetIntrospection(intro)
				res2, err := core.Run(p, tr, pred, mem, n)
				if err != nil {
					t.Fatal(err)
				}
				if res2 != res {
					t.Errorf("%s cfg %d n=%d: trace result %+v != generator result %+v",
						name, pi, n, res2, res)
				}
				if got := core.LastCPI(); got != stack {
					t.Errorf("%s cfg %d n=%d: trace stack %v != generator stack %v",
						name, pi, n, got, stack)
				}
			}
		}
	}
}

// TestIntrospectionPreservesResult proves arming introspection changes no
// simulated outcome: results are bit-identical on and off, including the
// pinned golden point.
func TestIntrospectionPreservesResult(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	for _, p := range cpiParams() {
		off, _ := runWithCPI(t, p, prof, 5000, nil)
		on, stack := runWithCPI(t, p, prof, 5000, &Introspection{Interval: 500})
		if on != off {
			t.Errorf("cfg %+v: introspection on %+v != off %+v", p, on, off)
		}
		if stack.Cycles() != on.Cycles {
			t.Errorf("cfg %+v: armed stack sums to %d, want %d", p, stack.Cycles(), on.Cycles)
		}
	}

	var armed Core
	armed.SetIntrospection(&Introspection{})
	if got := goldenRun(t, &armed); got != goldenResult {
		t.Errorf("golden with introspection diverged:\n got  %#v\nwant %#v", got, goldenResult)
	}
	if got := armed.LastCPI().Cycles(); got != goldenResult.Cycles {
		t.Errorf("golden stack sums to %d, want %d", got, goldenResult.Cycles)
	}

	// Disarming again must fully rewind the introspection state.
	armed.SetIntrospection(nil)
	if got := goldenRun(t, &armed); got != goldenResult {
		t.Errorf("golden after disarm diverged: %#v", got)
	}
	if got := armed.LastCPI(); got != (CPIStack{}) {
		t.Errorf("disarmed core reports stack %v, want zeros", got)
	}
	if got := armed.LastIntervals(); len(got) != 0 {
		t.Errorf("disarmed core reports %d interval records, want none", len(got))
	}
}

// TestCPIBucketsCoverStallCauses checks the classifier actually uses its
// buckets: starved shapes must attribute cycles to the structure that
// starves them, and a memory-bound profile must show load stalls.
func TestCPIBucketsCoverStallCauses(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	intro := &Introspection{}

	// Starved structures + a pipelined wakeup loop: the head spends real
	// cycles dispatched-but-unissued while dispatch is blocked, which is
	// the (root-cause) condition the back-pressure buckets charge. A full
	// ROB behind a stalled head load is charged to the load, not the ROB.
	tiny := baseParams()
	tiny.Width, tiny.ROBSize, tiny.IQSize, tiny.LSQSize = 2, 8, 4, 2
	tiny.WakeupExtra, tiny.SchedStages = 3, 2
	_, stack := runWithCPI(t, tiny, prof, 20000, intro)
	for _, b := range []Bucket{BucketROBFull, BucketIQFull, BucketLSQFull, BucketStorePort} {
		if stack[b] == 0 {
			t.Errorf("starved config shows no %s cycles: %v", b, stack)
		}
	}
	if stack[BucketLoadL2]+stack[BucketLoadMem] == 0 {
		t.Errorf("mcf shows no L2/memory load stalls: %v", stack)
	}

	deep := baseParams()
	deep.FrontEndStages = 14
	_, stack = runWithCPI(t, deep, prof, 20000, intro)
	if stack[BucketFetch] == 0 {
		t.Errorf("deep front end shows no fetch bubbles: %v", stack)
	}
	if stack[BucketMispredict] == 0 {
		t.Errorf("deep front end shows no mispredict penalty: %v", stack)
	}
	if stack[BucketBase] == 0 {
		t.Errorf("no base cycles at all: %v", stack)
	}
}

// TestLockstepLaneCPIMatchesScalar extends the lockstep contract to the
// introspection layer: each lane's CPI stack equals the same configuration
// run scalar over the same stream.
func TestLockstepLaneCPIMatchesScalar(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	const n = 7000
	for _, k := range []int{1, 2, 8} {
		ps := laneParams(k)
		preds, mems := lockstepFixtures(t, k)
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Fatal(err)
		}
		var m MultiCore
		m.SetIntrospection(0)
		got := make([]Result, k)
		if err := m.Run(got, ps, gen, preds, mems, n); err != nil {
			t.Fatalf("k=%d: lockstep: %v", k, err)
		}
		for i := 0; i < k; i++ {
			want, wantStack := runWithCPI(t, ps[i], prof, n, &Introspection{})
			if got[i] != want {
				t.Errorf("k=%d lane %d: lockstep result %+v != scalar %+v", k, i, got[i], want)
			}
			if lane := m.LaneCPI(i); lane != wantStack {
				t.Errorf("k=%d lane %d: lockstep stack %v != scalar %v", k, i, lane, wantStack)
			}
		}
	}
}

// TestIntervalDeterminism pins the sampling contract: identical
// stream+config produce identical record sequences across runs; records
// are cumulative with the sum invariant holding at every snapshot; the
// closing record equals the run's Result.
func TestIntervalDeterminism(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	p := baseParams()
	const n, every = 20000, 1000

	res, _, recs1 := runIntrospected(t, p, prof, n, &Introspection{Interval: every})
	_, _, recs2 := runIntrospected(t, p, prof, n, &Introspection{Interval: every})

	if len(recs1) != len(recs2) {
		t.Fatalf("record counts differ across runs: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i] != recs2[i] {
			t.Errorf("record %d differs across runs:\n %+v\n %+v", i, recs1[i], recs2[i])
		}
	}

	if len(recs1) < 2 {
		t.Fatalf("expected multiple interval records, got %d", len(recs1))
	}
	var prev IntervalRecord
	for i, r := range recs1 {
		if r.Stack.Cycles() != r.Cycles {
			t.Errorf("record %d: stack sums to %d, want %d", i, r.Stack.Cycles(), r.Cycles)
		}
		if r.Instructions < prev.Instructions || r.Cycles < prev.Cycles {
			t.Errorf("record %d not cumulative: %+v after %+v", i, r, prev)
		}
		prev = r
	}
	last := recs1[len(recs1)-1]
	want := IntervalRecord{
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		Stack:        last.Stack,
		Branch:       res.Branch,
		L1:           res.L1,
		L2:           res.L2,
		LoadsL1:      res.LoadsL1,
		LoadsL2:      res.LoadsL2,
		LoadsMem:     res.LoadsMem,
	}
	if last != want {
		t.Errorf("closing record %+v != result totals %+v", last, want)
	}
}

// TestLockstepIntervalsMatchScalar: per-lane interval sequences from a
// lockstep run equal the sequences the same configurations produce scalar.
func TestLockstepIntervalsMatchScalar(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	const n, every = 7000, 500
	for _, k := range []int{1, 2, 8} {
		ps := laneParams(k)
		preds, mems := lockstepFixtures(t, k)
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Fatal(err)
		}
		var m MultiCore
		m.SetIntrospection(every)
		got := make([]Result, k)
		if err := m.Run(got, ps, gen, preds, mems, n); err != nil {
			t.Fatalf("k=%d: lockstep: %v", k, err)
		}
		for i := 0; i < k; i++ {
			_, _, ref := runIntrospected(t, ps[i], prof, n, &Introspection{Interval: every})
			lane := m.LaneIntervals(i)
			if len(lane) != len(ref) {
				t.Fatalf("k=%d lane %d: %d records != scalar %d", k, i, len(lane), len(ref))
			}
			for j := range ref {
				if lane[j] != ref[j] {
					t.Errorf("k=%d lane %d record %d: lockstep %+v != scalar %+v",
						k, i, j, lane[j], ref[j])
				}
			}
		}
	}
}

// TestStackMapRoundTrip covers the exchange form used by trace events.
func TestStackMapRoundTrip(t *testing.T) {
	var s CPIStack
	for i := range s {
		s[i] = uint64(i+1) * 7
	}
	if got := StackFromMap(s.Map()); got != s {
		t.Errorf("round trip %v != %v", got, s)
	}
	if s.Share(BucketBase) <= 0 {
		t.Errorf("share of base should be positive")
	}
	names := map[string]bool{}
	for b := Bucket(0); int(b) < NumBuckets; b++ {
		name := b.String()
		if name == "invalid" || names[name] {
			t.Errorf("bucket %d has bad or duplicate name %q", b, name)
		}
		names[name] = true
	}
}
