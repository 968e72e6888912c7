package tracing

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// config is a stand-in for a simulator configuration: a value whose
// canonical string only a writing consumer renders.
type config struct{ width int }

func (c *config) String() string { return fmt.Sprintf("w=%d", c.width) }

// stack is a stand-in for a CPI stack captured by reference.
type stack [2]uint64

func (s *stack) Map() map[string]uint64 { return map[string]uint64{"base": s[0], "rob_full": s[1]} }

// interval is a stand-in for a kernel interval record.
type interval struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

// attributedSpans holds one span of every attributed kind, built the way
// the instrumented layers build them: values captured by reference.
func attributedSpans() []Span {
	cfg, cpi := &config{width: 4}, &stack{700, 300}
	series := []interval{{500, 700}, {1000, 1300}}
	return []Span{
		{ID: 2, Parent: 1, Kind: KindStep, Name: "gzip", Arg: 3, Start: 10, End: 20, Attrs: &StepAttrs{
			Chain: 1, TotalIterations: 40, Move: "clock", Temperature: 0.07, Budget: 4000,
			Score: 1.5, CurrentScore: 1.5, BestScore: 1.75, Feasible: true, Accepted: true,
		}},
		{ID: 3, Parent: 2, Kind: KindEvalMiss, Name: "gzip", Arg: 4000, Start: 11, End: 19, Attrs: &EvalAttrs{
			Budget: 4000, Members: []EvalMember{{Outcome: "miss", Score: 1.5, IPT: 1.5, WallNs: 8, Config: cfg, CPI: cpi}},
		}},
		{ID: 4, Parent: 1, Kind: KindEvalBatch, Name: "mcf", Arg: 2, Start: 21, End: 30, Attrs: &EvalAttrs{
			Budget: 8000, Members: []EvalMember{
				{Outcome: "hit", Score: 0.5, IPT: 0.5, Config: cfg},
				{Outcome: "miss", Err: errors.New("config invalid")},
				{Outcome: "miss", Score: 0.75, IPT: 0.75, WallNs: 4, Config: cfg, CPI: cpi, Intervals: series},
			},
		}},
		{ID: 5, Parent: 1, Kind: KindChain, Name: "gzip", Arg: 1, Start: 5, End: 31, Attrs: &ChainAttrs{BestScore: 1.75, BestIPT: 1.75, Evaluations: 41}},
		{ID: 6, Parent: 1, Kind: KindCell, Name: "gzip", Arg: 2, Start: 32, End: 40, Attrs: &CellAttrs{
			Budget: 8000, Cells: []Cell{{Arch: "gzip", IPT: 1.75}, {Arch: "mcf", IPT: 1.25}},
		}},
		{ID: 1, Kind: KindRun, Name: "xpscalar", Start: 0, End: 41, Attrs: &RunAttrs{Requests: 3, Hits: 1, Misses: 2, CacheEntries: 2, LockstepGroups: 1, LockstepLanes: 1}},
	}
}

// Every attributed kind survives a stream round trip: the referenced
// values come back rendered, everything else unchanged, in write order.
func TestStreamRoundTrip(t *testing.T) {
	spans := attributedSpans()
	meta := Meta{Tool: "xpscalar", TraceID: "c0ffee0123456789",
		Manifest: &Manifest{Seed: 7, GoVersion: "go1", OS: "linux", Arch: "amd64", MaxProcs: 2,
			Flags: map[string]string{"seed": "7"}, Tech: map[string]float64{"fo4_ns": 0.036}}}
	gotMeta, got, err := ReadSpans(writeStream(t, meta, spans))
	if err != nil {
		t.Fatal(err)
	}
	meta.Stream = streamMagic
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("header = %+v, want %+v", gotMeta, meta)
	}
	want := attributedSpans()
	want[1].Attrs.(*EvalAttrs).Members[0].Config = Text("w=4")
	want[1].Attrs.(*EvalAttrs).Members[0].CPI = CPIMap{"base": 700, "rob_full": 300}
	want[2].Attrs.(*EvalAttrs).Members[0].Config = Text("w=4")
	want[2].Attrs.(*EvalAttrs).Members[1].Err = errorText("config invalid")
	sampled := &want[2].Attrs.(*EvalAttrs).Members[2]
	sampled.Config, sampled.CPI = Text("w=4"), CPIMap{"base": 700, "rob_full": 300}
	sampled.Intervals = json.RawMessage(`[{"instructions":500,"cycles":700},{"instructions":1000,"cycles":1300}]`)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// Spans ended concurrently — as pool workers end them — reach a streaming
// recorder's writer whole: every line parses, none is lost or torn. CI
// runs this under -race -count=10 (make race-hot).
func TestStreamConcurrentEnd(t *testing.T) {
	var buf bytes.Buffer
	var w *StreamWriter
	rec := NewRecorderFunc(func(s Span) { w.Write(s) })
	w = NewStreamWriter(&buf, Meta{Tool: "test", TraceID: NewTraceID()})
	ctx := NewContext(context.Background(), rec)
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := FromContext(WithTrack(ctx, g+1))
			for i := 0; i < perWorker; i++ {
				s := h.Begin(KindStep, "gzip", int64(i+1))
				s.Attrs = &StepAttrs{Chain: g, TotalIterations: perWorker, Move: "width", Feasible: true}
				e := h.WithParent(s).Begin(KindEvalHit, "gzip", 1000)
				e.Attrs = &EvalAttrs{Budget: 1000, Members: []EvalMember{{Outcome: "hit", Config: &config{width: g}}}}
				h.End(e)
				h.End(s)
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Errorf("streaming recorder buffered %d spans", rec.Len())
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d is torn: %q", lines, sc.Text())
		}
	}
	_, spans, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := workers * perWorker * 2; len(spans) != want || w.Len() != want || lines != want+1 {
		t.Fatalf("stream holds %d spans in %d lines (writer counted %d), want %d", len(spans), lines, w.Len(), want)
	}
	steps := map[[2]int64]bool{}
	for _, s := range spans {
		if a, ok := s.Attrs.(*StepAttrs); ok {
			steps[[2]int64{int64(a.Chain), s.Arg}] = true
		}
	}
	if len(steps) != workers*perWorker {
		t.Errorf("%d distinct steps survived, want %d", len(steps), workers*perWorker)
	}
}

// checkBadLine reads a stream whose third line is each case's line and
// checks the read fails with an error mentioning the case's want, keeping
// the header and the one good span before it.
func checkBadLine(t *testing.T, cases map[string]struct{ line, want string }) {
	t.Helper()
	header := `{"stream":"xptrace-spans","tool":"t"}` + "\n"
	good := `{"id":1,"kind":"chain","name":"gzip","start_ns":0,"end_ns":1,"attrs":{"best_score":1,"best_ipt":1,"evaluations":3}}` + "\n"
	for name, tc := range cases {
		meta, spans, err := ReadSpans(strings.NewReader(header + good + tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
		if meta.Tool != "t" || len(spans) != 1 || spans[0].Attrs.(*ChainAttrs).Evaluations != 3 {
			t.Errorf("%s: spans before the bad line = %+v (meta %+v)", name, spans, meta)
		}
	}
}

// A malformed line fails the read with its line number and the spans
// before it.
func TestReadSpansBadLine(t *testing.T) {
	checkBadLine(t, map[string]struct{ line, want string }{
		"not json":        {`{"id":2,"kind":`, "span line 3"},
		"truncated attrs": {`{"id":2,"kind":"cell","attrs":{"budget":1,"cells":[{"arch":"gzip"`, "span line 3"},
	})
}

// Attributes are decoded by the span's kind: attributes of the wrong
// shape for their kind, or on a kind that carries none or that the reader
// does not know, fail the read.
func TestReadSpansAttrsMismatch(t *testing.T) {
	checkBadLine(t, map[string]struct{ line, want string }{
		"wrong type":      {`{"id":2,"kind":"step","attrs":{"score":"high"}}`, "step attributes"},
		"other kind":      {`{"id":2,"kind":"step","attrs":{"best_ipt":1}}`, "step attributes"},
		"run field":       {`{"id":2,"kind":"run","attrs":{"requests":1,"remote_errors":1}}`, "run attributes"},
		"unattributed":    {`{"id":2,"kind":"simulate","attrs":{"budget":1}}`, "carry no attributes"},
		"unknown kind":    {`{"id":2,"kind":"no_such_kind","attrs":{}}`, "carry no attributes"},
		"member field":    {`{"id":2,"kind":"eval.hit","attrs":{"budget":1,"members":[{"outcome":"hit","ipc":2}]}}`, "eval.hit attributes"},
		"interval series": {`{"id":2,"kind":"eval.miss","attrs":{"budget":1,"members":[{"outcome":"miss","intervals":{"cycles":1}}]}}`, "eval.miss attributes"},
	})
}

// olderBuildStream is a stream as builds with cross-process tracing and a
// remote cache tier wrote it: the header carries a wall-clock origin and a
// manifest recording -trace-id, the serve.get span the caller's trace,
// remote parent and job, and the run span the remote tier's counters.
const olderBuildStream = `{"stream":"xptrace-spans","tool":"xpserved","trace_id":"c0ffee0123456789","origin_unix_ns":1700000000000000000,"manifest":{"seed":7,"go_version":"go1.24.0","os":"linux","arch":"amd64","max_procs":2,"flags":{"seed":"7","trace-id":"0123456789abcdef"}}}
{"id":2,"parent":1,"kind":"eval.disk","name":"abcd1234","start_ns":20,"end_ns":30}
{"id":1,"track":1,"kind":"serve.get","name":"abcd1234","arg":1,"start_ns":10,"end_ns":40,"trace":"0123456789abcdef","remote_parent":9,"job":"job-0001"}
{"id":3,"kind":"run","name":"xpscalar","start_ns":0,"end_ns":50,"attrs":{"requests":5,"hits":1,"deduped":0,"misses":0,"evictions":0,"cache_entries":4,"disk_hits":4,"remote_hits":3,"remote_misses":1}}
`

// A stream written by an older build reads: the fields this build no
// longer writes are skipped, and every field it keeps comes back intact.
func TestReadSpansOlderBuild(t *testing.T) {
	meta, spans, err := ReadSpans(strings.NewReader(olderBuildStream))
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := Meta{Stream: streamMagic, Tool: "xpserved", TraceID: "c0ffee0123456789",
		Manifest: &Manifest{Seed: 7, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64", MaxProcs: 2,
			Flags: map[string]string{"seed": "7", "trace-id": "0123456789abcdef"}}}
	if !reflect.DeepEqual(meta, wantMeta) {
		t.Errorf("header = %+v, want %+v", meta, wantMeta)
	}
	want := []Span{
		{ID: 2, Parent: 1, Kind: KindEvalDisk, Name: "abcd1234", Start: 20, End: 30},
		{ID: 1, Track: 1, Kind: KindServeGet, Name: "abcd1234", Arg: 1, Start: 10, End: 40},
		{ID: 3, Kind: KindRun, Name: "xpscalar", Start: 0, End: 50,
			Attrs: &RunAttrs{Requests: 5, Hits: 1, CacheEntries: 4, DiskHits: 4}},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %+v, want %+v", spans, want)
	}
}

// FuzzReadSpans feeds arbitrary bytes to ReadSpans, the one reader of
// -trace files and job event streams. No input may panic, and whatever it
// accepts survives a write → read round trip unchanged.
//
//	go test ./internal/tracing -run '^$' -fuzz FuzzReadSpans -fuzztime 60s
func FuzzReadSpans(f *testing.F) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, Meta{Tool: "xpscalar", TraceID: "c0ffee0123456789",
		Manifest: &Manifest{Seed: 7, Flags: map[string]string{"seed": "7"}}})
	for _, s := range attributedSpans() {
		w.Write(s)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)-20])
	f.Add(strings.Replace(valid, "xptrace-spans", "xptrace-spanz", 1))
	f.Add(`{"event":"manifest","seq":0,"t_ns":1,"data":{"tool":"xpscalar","seed":7}}` + "\n" +
		`{"event":"anneal_step","seq":1,"t_ns":2,"data":{"workload":"gzip","chain":0}}` + "\n")
	f.Add(`{"stream":"xptrace-spans"}` + "\n" + `{"id":1,"kind":"eval.batch","attrs":{"budget":"8000","members":{}}}` + "\n")
	f.Add(`{"stream":"xptrace-spans"}` + "\n" + `{"id":1,"kind":"run","attrs":{"requests":-1}}` + "\n")
	f.Add(`{"stream":"xptrace-spans"}` + "\n" + `{"id":1,"kind":"eval.miss","attrs":{"budget":8,"members":[` +
		`{"outcome":"miss","config":"w=2","intervals":[ {"instructions":4, "cycles":9, "stack":[5,4]}, {"note":"<&>"} ]}]}}` + "\n")
	f.Add(`{"stream":"xptrace-spans"}` + "\n" + `{"id":1,"kind":"eval.batch","attrs":{"budget":8,"members":[` +
		`{"outcome":"miss","intervals":null},{"outcome":"miss","intervals":[]},{"outcome":"miss","intervals":[1,"x"]}]}}` + "\n")
	f.Add(olderBuildStream)
	f.Fuzz(func(t *testing.T, data string) {
		meta, spans, err := ReadSpans(strings.NewReader(data))
		if err != nil {
			return
		}
		first := writeStream(t, meta, spans).Bytes()
		meta2, spans2, err := ReadSpans(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("rewritten stream unreadable: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(spans2, spans) {
			t.Fatalf("spans changed across a round trip:\ngot  %+v\nwant %+v", spans2, spans)
		}
		if second := writeStream(t, meta2, spans2).Bytes(); !bytes.Equal(second, first) {
			t.Fatalf("stream changed across a round trip:\n%s\nvs\n%s", second, first)
		}
	})
}
