package tracing

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// fixedSpans is a hand-built two-chain run tree with deterministic
// timestamps: a run span over one workload exploration, two chains on
// worker tracks 1 and 2, each with a step; one step's evaluation misses
// (and simulates), the other's hits.
func fixedSpans() []Span {
	return []Span{
		{ID: 1, Kind: KindRun, Name: "xpscalar", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Kind: KindWorkload, Name: "gzip", Start: 500, End: 9500},
		{ID: 3, Parent: 2, Track: 1, Kind: KindChain, Name: "gzip", Arg: 0, Start: 1000, End: 9000},
		{ID: 4, Parent: 2, Track: 2, Kind: KindChain, Name: "gzip", Arg: 1, Start: 1000, End: 8000},
		{ID: 5, Parent: 3, Track: 1, Kind: KindStep, Name: "gzip", Arg: 1, Start: 1500, End: 4000},
		{ID: 6, Parent: 5, Track: 1, Kind: KindEvalMiss, Name: "gzip", Arg: 2000, Start: 1600, End: 3900},
		{ID: 7, Parent: 6, Track: 1, Kind: KindSimulate, Name: "gzip", Start: 1700, End: 3800},
		{ID: 8, Parent: 4, Track: 2, Kind: KindStep, Name: "gzip", Arg: 1, Start: 1500, End: 3000},
		{ID: 9, Parent: 8, Track: 2, Kind: KindEvalHit, Name: "gzip", Arg: 2000, Start: 1600, End: 2900},
	}
}

// writeStream writes a whole span stream through a StreamWriter.
func writeStream(t testing.TB, meta Meta, spans []Span) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, meta)
	for _, s := range spans {
		w.Write(s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(spans) {
		t.Fatalf("stream wrote %d spans, want %d", w.Len(), len(spans))
	}
	return &buf
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(a) {
		t.Errorf("trace ID %q is not 16 hex chars", a)
	}
	if a == b {
		t.Errorf("two trace IDs collided: %q", a)
	}
}

func TestSpanStreamRoundtrip(t *testing.T) {
	spans := fixedSpans()
	meta, got, err := ReadSpans(writeStream(t, Meta{Tool: "xpscalar"}, spans))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tool != "xpscalar" || meta.Stream != streamMagic {
		t.Errorf("meta = %+v", meta)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, spans)
	}
}

// A JSONL event trace of the old envelope format is not a span stream,
// and the error names the header a stream must start with.
func TestReadSpansRejectsForeignFile(t *testing.T) {
	_, _, err := ReadSpans(strings.NewReader(`{"event":"manifest","seq":0,"t_ns":1,"data":{"tool":"xpscalar"}}` + "\n"))
	if err == nil {
		t.Fatal("a JSONL event trace was accepted as a span stream")
	}
	if !strings.Contains(err.Error(), `{"stream":"xptrace-spans"}`) {
		t.Errorf("error %q does not name the expected header", err)
	}
}

// The Chrome exporter's output is deterministic byte for byte for a given
// span set — the golden below is what Perfetto loads.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "xpscalar", fixedSpans()); err != nil {
		t.Fatal(err)
	}
	const golden = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"xpscalar"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"main"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"worker 0"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2,"args":{"name":"worker 1"}},
{"name":"run xpscalar","cat":"run","ph":"X","ts":0,"dur":10,"pid":1,"tid":0,"args":{"arg":0,"id":1,"parent":0}},
{"name":"explore gzip","cat":"explore","ph":"X","ts":0.5,"dur":9,"pid":1,"tid":0,"args":{"arg":0,"id":2,"parent":1}},
{"name":"chain gzip","cat":"chain","ph":"X","ts":1,"dur":8,"pid":1,"tid":1,"args":{"arg":0,"id":3,"parent":2}},
{"name":"chain gzip","cat":"chain","ph":"X","ts":1,"dur":7,"pid":1,"tid":2,"args":{"arg":1,"id":4,"parent":2}},
{"name":"step gzip","cat":"step","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":1,"args":{"arg":1,"id":5,"parent":3}},
{"name":"eval.miss gzip","cat":"eval.miss","ph":"X","ts":1.6,"dur":2.3,"pid":1,"tid":1,"args":{"arg":2000,"id":6,"parent":5}},
{"name":"simulate gzip","cat":"simulate","ph":"X","ts":1.7,"dur":2.1,"pid":1,"tid":1,"args":{"arg":0,"id":7,"parent":6}},
{"name":"step gzip","cat":"step","ph":"X","ts":1.5,"dur":1.5,"pid":1,"tid":2,"args":{"arg":1,"id":8,"parent":4}},
{"name":"eval.hit gzip","cat":"eval.hit","ph":"X","ts":1.6,"dur":1.3,"pid":1,"tid":2,"args":{"arg":2000,"id":9,"parent":8}}
]}
`
	if got := buf.String(); got != golden {
		t.Errorf("chrome trace diverged from golden:\n%s", got)
	}
	// And it must be valid JSON of the expected shape.
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != len(fixedSpans())+4 {
		t.Errorf("document shape: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

func TestAggregateSelfTime(t *testing.T) {
	stats := Aggregate(fixedSpans())
	byKind := map[string]KindStat{}
	for _, s := range stats {
		byKind[s.Kind] = s
	}
	// The miss span [1600, 3900] has one child, simulate [1700, 3800]:
	// self = 2300 - 2100 = 200.
	if st := byKind[KindEvalMiss]; st.Count != 1 || st.TotalNs != 2300 || st.SelfNs != 200 {
		t.Errorf("eval.miss stat = %+v", st)
	}
	// simulate is a leaf: self == total.
	if st := byKind[KindSimulate]; st.SelfNs != st.TotalNs || st.TotalNs != 2100 {
		t.Errorf("simulate stat = %+v", st)
	}
	// Two chains, total 8000+7000, children (one step each) 2500+1500.
	if st := byKind[KindChain]; st.Count != 2 || st.TotalNs != 15000 || st.SelfNs != 11000 {
		t.Errorf("chain stat = %+v", st)
	}
	// Ordering is by descending self time.
	for i := 1; i < len(stats); i++ {
		if stats[i].SelfNs > stats[i-1].SelfNs {
			t.Fatalf("stats not sorted by self time at %d", i)
		}
	}
}

func TestWriteAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAttribution(&buf, fixedSpans()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kind", "self%", KindChain, KindSimulate, KindEvalHit} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution table missing %q:\n%s", want, out)
		}
	}
}
