// Unit tests for the cpi and intervals views and the diff rules they add.
// Both views are pinned to golden output: the ISSUE contract is that they
// are deterministic, and a byte-for-byte golden is the strongest form of
// that claim a test can make.

package main

import (
	"bytes"
	"testing"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/introspect"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tracing"
)

func cpiFixture() *trace {
	mk := func(workload, config string, budget int, cpi map[string]uint64) eval {
		return eval{workload: workload, budget: budget, EvalMember: tracing.EvalMember{
			Outcome: "miss", Config: tracing.Text(config), CPI: tracing.CPIMap(cpi),
		}}
	}
	return &trace{path: "t.jsonl", evals: []eval{
		mk("mcf", "w=2 rob=16", 2000, map[string]uint64{"base": 1400, "rob_full": 900, "load_mem": 700}),
		mk("gzip", "w=4 rob=64", 1000, map[string]uint64{"base": 600, "mispredict": 100, "load_l2": 300}),
		// A cache hit replaying the same memoized stack must not add a row.
		mk("gzip", "w=4 rob=64", 1000, map[string]uint64{"base": 600, "mispredict": 100, "load_l2": 300}),
		// No CPI map (introspection was off for this one): skipped.
		{workload: "gzip", budget: 1000, EvalMember: tracing.EvalMember{Outcome: "hit"}},
	}}
}

const cpiGolden = `CPI stacks: 2 (workload, configuration) pairs
configurations:
  [0] w=4 rob=64
  [1] w=2 rob=16

workload  cfg  cycles  cpi    base   fetch  mispredict  load_l1  load_l2  load_mem  rob_full  iq_full  lsq_full  store_port
---------------------------------------------------------------------------------------------------------------------------
gzip      0    1000    1.000  60.0%  0.0%   10.0%       0.0%     30.0%    0.0%      0.0%      0.0%     0.0%      0.0%
mcf       1    3000    1.500  46.7%  0.0%   0.0%        0.0%     0.0%     23.3%     30.0%     0.0%     0.0%      0.0%
`

func TestWriteCPIStacksGolden(t *testing.T) {
	for run := 0; run < 2; run++ { // twice: the view must be deterministic
		var buf bytes.Buffer
		if err := writeCPIStacks(&buf, cpiFixture()); err != nil {
			t.Fatal(err)
		}
		if buf.String() != cpiGolden {
			t.Errorf("run %d: cpi view diverged from golden:\n--- got\n%s--- want\n%s", run, buf.String(), cpiGolden)
		}
	}
}

func TestWriteCPIStacksEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCPIStacks(&buf, &trace{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no CPI stacks")) {
		t.Errorf("empty trace output: %q", buf.String())
	}
}

func intervalsFixture() []introspect.Record {
	mk := func(lane, seq int, instr, cycles uint64, stack pipeline.CPIStack, br bpred.Stats, l1, l2 cache.Stats) introspect.Record {
		return introspect.Record{
			Workload: "gzip", Config: "w=4 rob=64", Lane: lane, Seq: seq,
			IntervalRecord: pipeline.IntervalRecord{
				Instructions: instr, Cycles: cycles, Stack: stack, Branch: br, L1: l1, L2: l2,
			},
		}
	}
	base := func(b, m, l uint64) pipeline.CPIStack {
		var s pipeline.CPIStack
		s[pipeline.BucketBase] = b
		s[pipeline.BucketMispredict] = m
		s[pipeline.BucketLoadMem] = l
		return s
	}
	// Two lanes of the same simulation, records deliberately out of order:
	// the view must sort groups by lane and records by seq.
	return []introspect.Record{
		mk(1, 0, 500, 700, base(600, 100, 0), bpred.Stats{Lookups: 100, Mispredicts: 4}, cache.Stats{Accesses: 150, Misses: 3}, cache.Stats{}),
		mk(0, 1, 1000, 1900, base(1000, 100, 800), bpred.Stats{Lookups: 200, Mispredicts: 14}, cache.Stats{Accesses: 300, Misses: 43}, cache.Stats{Accesses: 43, Misses: 20}),
		mk(0, 0, 500, 600, base(500, 100, 0), bpred.Stats{Lookups: 100, Mispredicts: 10}, cache.Stats{Accesses: 150, Misses: 3}, cache.Stats{Accesses: 3, Misses: 0}),
	}
}

const intervalsGolden = `gzip on w=4 rob=64 (lane 0): 2 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
-----------------------------------------------------------------
0    500     600     0.833  10.0%  6.0      0.0      base 83%
1    1000    1900    0.385  4.0%   80.0     40.0     load_mem 62%

gzip on w=4 rob=64 (lane 1): 1 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
-------------------------------------------------------------
0    500     700     0.714  4.0%   6.0      0.0      base 86%
`

func TestWriteIntervalTimelineGolden(t *testing.T) {
	for run := 0; run < 2; run++ {
		var buf bytes.Buffer
		if err := writeIntervalTimeline(&buf, intervalsFixture()); err != nil {
			t.Fatal(err)
		}
		if buf.String() != intervalsGolden {
			t.Errorf("run %d: intervals view diverged from golden:\n--- got\n%s--- want\n%s", run, buf.String(), intervalsGolden)
		}
	}
}

func TestWriteIntervalTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeIntervalTimeline(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no interval records")) {
		t.Errorf("empty output: %q", buf.String())
	}
}

// Introspection flags are observability-only: two manifests differing
// solely in -cpi/-intervals/-interval-size must show no manifest drift.
func TestDiffIgnoresIntrospectionFlags(t *testing.T) {
	a := &trace{path: "a", meta: tracing.Meta{Tool: "xpscalar", Manifest: &tracing.Manifest{
		Seed:  42,
		Flags: map[string]string{"workload": "gzip"},
	}}}
	b := &trace{path: "b", meta: tracing.Meta{Tool: "xpscalar", Manifest: &tracing.Manifest{
		Seed: 42,
		Flags: map[string]string{
			"workload": "gzip",
			"cpi":      "true", "intervals": "i.jsonl", "interval-size": "500",
		},
	}}}
	if diffManifests(a, b) {
		t.Error("introspection flags counted as manifest drift")
	}
	b.meta.Manifest.Flags["workload"] = "mcf"
	if !diffManifests(a, b) {
		t.Error("a real flag difference went undetected")
	}
}
