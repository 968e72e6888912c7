// Unit tests for the cpi and intervals views and the diff rules they add.
// Both views are pinned to golden output: the ISSUE contract is that they
// are deterministic, and a byte-for-byte golden is the strongest form of
// that claim a test can make.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tracing"
)

// cpiEval is one simulated member carrying a CPI stack.
func cpiEval(workload, config string, budget int, cpi map[string]uint64) eval {
	return eval{workload: workload, budget: budget, EvalMember: tracing.EvalMember{
		Outcome: "miss", Config: tracing.Text(config), CPI: tracing.CPIMap(cpi),
	}}
}

func cpiFixture() *trace {
	return &trace{path: "t.jsonl", evals: []eval{
		cpiEval("mcf", "w=2 rob=16", 2000, map[string]uint64{"base": 1400, "rob_full": 900, "load_mem": 700}),
		cpiEval("gzip", "w=4 rob=64", 1000, map[string]uint64{"base": 600, "mispredict": 100, "load_l2": 300}),
		// A cache hit replaying the same memoized stack must not add a row.
		cpiEval("gzip", "w=4 rob=64", 1000, map[string]uint64{"base": 600, "mispredict": 100, "load_l2": 300}),
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

// distinctCPIFixture holds simulations that share a rendered
// configuration: one configuration at two budgets, and two configurations
// whose strings are equal. Only the exact repeat collapses; the rest keep
// a row each, sorted by budget and then by stack.
func distinctCPIFixture() *trace {
	return &trace{evals: []eval{
		cpiEval("gzip", "w=4", 2000, map[string]uint64{"base": 1500, "load_mem": 500}),
		cpiEval("gzip", "w=4", 1000, map[string]uint64{"base": 900, "rob_full": 300}),
		cpiEval("gzip", "w=4", 1000, map[string]uint64{"base": 600, "load_l2": 400}),
		cpiEval("gzip", "w=4", 1000, map[string]uint64{"base": 900, "rob_full": 300}), // a hit replaying its miss
	}}
}

const distinctCPIGolden = `CPI stacks: 3 (workload, configuration) pairs
configurations:
  [0] w=4

workload  cfg  cycles  cpi    base   fetch  mispredict  load_l1  load_l2  load_mem  rob_full  iq_full  lsq_full  store_port
---------------------------------------------------------------------------------------------------------------------------
gzip      0    1000    1.000  60.0%  0.0%   0.0%        0.0%     40.0%    0.0%      0.0%      0.0%     0.0%      0.0%
gzip      0    1200    1.200  75.0%  0.0%   0.0%        0.0%     0.0%     0.0%      25.0%     0.0%     0.0%      0.0%
gzip      0    2000    1.000  75.0%  0.0%   0.0%        0.0%     0.0%     25.0%     0.0%      0.0%     0.0%      0.0%
`

func TestWriteCPIStacksGolden(t *testing.T) {
	for _, tc := range []struct {
		fixture func() *trace
		golden  string
	}{{cpiFixture, cpiGolden}, {distinctCPIFixture, distinctCPIGolden}} {
		for run := 0; run < 2; run++ { // twice: the view must be deterministic
			var buf bytes.Buffer
			if err := writeCPIStacks(&buf, tc.fixture()); err != nil {
				t.Fatal(err)
			}
			if buf.String() != tc.golden {
				t.Errorf("run %d: cpi view diverged from golden:\n--- got\n%s--- want\n%s", run, buf.String(), tc.golden)
			}
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

// encodeSpans writes spans through the span-stream writer.
func encodeSpans(tb testing.TB, spans ...tracing.Span) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := tracing.NewStreamWriter(&buf, tracing.Meta{Tool: "xpscalar"})
	for _, sp := range spans {
		w.Write(sp)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loadSpans writes spans to a trace file and loads them back the way
// every xptrace view does.
func loadSpans(t *testing.T, spans ...tracing.Span) *trace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := os.WriteFile(path, encodeSpans(t, spans...), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// missSpan is an eval.batch span whose members each simulated one series.
func missSpan(id tracing.SpanID, workload string, budget int, configs []string, series ...[]pipeline.IntervalRecord) tracing.Span {
	a := &tracing.EvalAttrs{Budget: budget}
	for i, recs := range series {
		a.Members = append(a.Members, tracing.EvalMember{Outcome: "miss", Config: tracing.Text(configs[i]), Intervals: recs})
	}
	return tracing.Span{ID: id, Kind: tracing.KindEvalBatch, Name: workload, Arg: int64(len(series)), Attrs: a}
}

func snapshot(instr, cycles, base, mispredict, loadMem uint64, br bpred.Stats, l1, l2 cache.Stats) pipeline.IntervalRecord {
	var s pipeline.CPIStack
	s[pipeline.BucketBase] = base
	s[pipeline.BucketMispredict] = mispredict
	s[pipeline.BucketLoadMem] = loadMem
	return pipeline.IntervalRecord{Instructions: instr, Cycles: cycles, Stack: s, Branch: br, L1: l1, L2: l2}
}

// intervalsFixture is one lockstep group of two configurations that render
// to the same string, each member carrying its own series.
func intervalsFixture(t *testing.T) *trace {
	return loadSpans(t, missSpan(1, "gzip", 1000, []string{"w=4 rob=64", "w=4 rob=64"},
		[]pipeline.IntervalRecord{
			snapshot(500, 700, 600, 100, 0, bpred.Stats{Lookups: 100, Mispredicts: 4}, cache.Stats{Accesses: 150, Misses: 3}, cache.Stats{}),
		},
		[]pipeline.IntervalRecord{
			snapshot(500, 600, 500, 100, 0, bpred.Stats{Lookups: 100, Mispredicts: 10}, cache.Stats{Accesses: 150, Misses: 3}, cache.Stats{Accesses: 3}),
			snapshot(1000, 1900, 1000, 100, 800, bpred.Stats{Lookups: 200, Mispredicts: 14}, cache.Stats{Accesses: 300, Misses: 43}, cache.Stats{Accesses: 43, Misses: 20}),
		},
	))
}

const intervalsGolden = `gzip on w=4 rob=64 (budget 1000): 2 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
-----------------------------------------------------------------
0    500     600     0.833  10.0%  6.0      0.0      base 83%
1    1000    1900    0.385  4.0%   80.0     40.0     load_mem 62%

gzip on w=4 rob=64 (budget 1000): 1 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
-------------------------------------------------------------
0    500     700     0.714  4.0%   6.0      0.0      base 86%
`

// distinctIntervalsFixture is one configuration at two budgets plus a
// second configuration whose string equals it: three simulations, so
// three tables, none differencing one simulation against another.
func distinctIntervalsFixture(t *testing.T) *trace {
	br, l1 := bpred.Stats{Lookups: 100, Mispredicts: 5}, cache.Stats{Accesses: 100, Misses: 2}
	short := []pipeline.IntervalRecord{snapshot(1000, 2000, 2000, 0, 0, br, l1, cache.Stats{})}
	long := []pipeline.IntervalRecord{
		snapshot(1000, 1500, 1500, 0, 0, br, l1, cache.Stats{}),
		snapshot(2000, 4000, 1500, 0, 2500, bpred.Stats{Lookups: 200, Mispredicts: 5}, cache.Stats{Accesses: 200, Misses: 12}, cache.Stats{Misses: 10}),
	}
	twin := []pipeline.IntervalRecord{snapshot(1000, 1250, 1000, 250, 0, br, l1, cache.Stats{})}
	return loadSpans(t,
		missSpan(1, "gzip", 2000, []string{"w=4"}, long),
		missSpan(2, "gzip", 1000, []string{"w=4", "w=4"}, short, twin),
	)
}

const distinctIntervalsGolden = `gzip on w=4 (budget 1000): 1 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
-------------------------------------------------------------
0    1000    1250    0.800  5.0%   2.0      0.0      base 80%

gzip on w=4 (budget 1000): 1 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
--------------------------------------------------------------
0    1000    2000    0.500  5.0%   2.0      0.0      base 100%

gzip on w=4 (budget 2000): 2 intervals
seq  instrs  cycles  ipc    br-mr  l1-mpki  l2-mpki  dominant
------------------------------------------------------------------
0    1000    1500    0.667  5.0%   2.0      0.0      base 100%
1    2000    4000    0.400  0.0%   10.0     10.0     load_mem 100%
`

func TestWriteIntervalTimelineGolden(t *testing.T) {
	for _, tc := range []struct {
		fixture func(*testing.T) *trace
		golden  string
	}{{intervalsFixture, intervalsGolden}, {distinctIntervalsFixture, distinctIntervalsGolden}} {
		for run := 0; run < 2; run++ {
			var buf bytes.Buffer
			if err := writeIntervalTimeline(&buf, tc.fixture(t)); err != nil {
				t.Fatal(err)
			}
			if buf.String() != tc.golden {
				t.Errorf("run %d: intervals view diverged from golden:\n--- got\n%s--- want\n%s", run, buf.String(), tc.golden)
			}
		}
	}
}

func TestWriteIntervalTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeIntervalTimeline(&buf, &trace{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no interval records")) {
		t.Errorf("empty output: %q", buf.String())
	}
}

// fullRecord sets every counter of a kernel interval record, so a field
// the stream drops or renames shows.
func fullRecord(seq int) pipeline.IntervalRecord {
	var stack pipeline.CPIStack
	for b := range stack {
		stack[b] = uint64(10*seq + b + 1)
	}
	return pipeline.IntervalRecord{
		Instructions: uint64(1000 * (seq + 1)),
		Cycles:       uint64(1000 + seq),
		Stack:        stack,
		Branch:       bpred.Stats{Lookups: 150, Mispredicts: 12},
		L1:           cache.Stats{Accesses: 400, Misses: 31, Writebacks: 7},
		L2:           cache.Stats{Accesses: 31, Misses: 9, Writebacks: 2},
		LoadsL1:      300, LoadsL2: 20, LoadsMem: 9,
	}
}

// Series written into a span stream encode byte-deterministically and
// load back as the kernel's records, every counter intact, each on the
// member that carried it.
func TestTraceIntervalsRoundTrip(t *testing.T) {
	series := [][]pipeline.IntervalRecord{
		{fullRecord(0), fullRecord(1), fullRecord(2)},
		{fullRecord(3)},
	}
	span := missSpan(1, "gzip", 3000, []string{"w=4", "w=2"}, series...)
	first, second := encodeSpans(t, span), encodeSpans(t, span)
	if !bytes.Equal(first, second) {
		t.Error("span stream encoding is not byte-deterministic")
	}
	tr, err := readTrace(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.evals) != len(series) {
		t.Fatalf("round trip: %d members, want %d", len(tr.evals), len(series))
	}
	for i, e := range tr.evals {
		if e.workload != "gzip" || e.budget != 3000 || e.config() != span.Attrs.(*tracing.EvalAttrs).Members[i].Config.String() {
			t.Errorf("member %d labelled %s/%d/%s", i, e.workload, e.budget, e.config())
		}
		if !reflect.DeepEqual(e.intervals, series[i]) {
			t.Errorf("member %d series:\n got  %+v\nwant %+v", i, e.intervals, series[i])
		}
	}
}

// A series is decoded strictly into the kernel's record type: a field
// this build does not know, or an element that is no record, fails the
// load with its span rather than vanishing.
func TestLoadTraceRejectsBadIntervals(t *testing.T) {
	for name, tc := range map[string]struct{ series, want string }{
		"unknown field":  {`[{"instructions":500,"cycles":700,"ipc":0.7}]`, `unknown field "ipc"`},
		"not a record":   {`[{"instructions":500},"garbage"]`, "cannot unmarshal string"},
		"negative count": {`[{"instructions":500,"cycles":-1}]`, "cannot unmarshal number -1"},
	} {
		path := filepath.Join(t.TempDir(), "t.jsonl")
		stream := `{"stream":"xptrace-spans","tool":"xpscalar"}` + "\n" +
			`{"id":7,"kind":"eval.miss","name":"gzip","attrs":{"budget":1000,"members":[` +
			`{"outcome":"miss","config":"w=4","intervals":` + tc.series + `}]}}` + "\n"
		if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadTrace(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "span 7") {
			t.Errorf("%s: err = %v, want one naming %q and its span", name, err, tc.want)
		}
	}
}

// FuzzLoadTraceIntervals feeds arbitrary bytes to readTrace, the reader
// every xptrace view starts from. No input may panic, and the interval
// series it accepts survive a write → read round trip unchanged.
//
//	go test ./cmd/xptrace -run '^$' -fuzz FuzzLoadTraceIntervals -fuzztime 60s
func FuzzLoadTraceIntervals(f *testing.F) {
	valid := string(encodeSpans(f, missSpan(1, "gzip", 1000, []string{"w=4 rob=64", "w=4 rob=64"},
		[]pipeline.IntervalRecord{fullRecord(0)},
		[]pipeline.IntervalRecord{fullRecord(0), fullRecord(1)})))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(strings.Replace(valid, `"cycles":1000`, `"cycles":-1`, 1))
	f.Add(`{"stream":"xptrace-spans"}` + "\n" + `{"id":1,"kind":"eval.miss","name":"gzip","attrs":{"budget":8,"members":[` +
		`{"outcome":"miss","intervals":[{"instructions":4,"stack":[1,2,3,4,5,6,7,8,9,10,11,12,13]}]}]}}` + "\n")
	series := func(tr *trace) [][]pipeline.IntervalRecord {
		var out [][]pipeline.IntervalRecord
		for _, e := range tr.evals {
			if len(e.intervals) > 0 {
				out = append(out, e.intervals)
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := readTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		want := series(tr)
		spans := make([]tracing.Span, len(want))
		for i, recs := range want {
			spans[i] = missSpan(tracing.SpanID(i+1), "gzip", 1000, []string{"w=4"}, recs)
		}
		again, err := readTrace(bytes.NewReader(encodeSpans(t, spans...)))
		if err != nil {
			t.Fatalf("rewritten series unreadable: %v", err)
		}
		if got := series(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("series changed across a round trip:\ngot  %+v\nwant %+v", got, want)
		}
	})
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
