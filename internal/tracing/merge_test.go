package tracing

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fixedStreams is a hand-built two-process cache-hit round trip: a client
// run whose eval.miss issues a remote.get, answered by a server whose
// serve.get (stamped with the client's trace context) consults its disk
// tier. The server's origin is 3µs after the client's, so merged
// timestamps land on one axis.
func fixedStreams() []Stream {
	client := Stream{
		Meta: Meta{Tool: "xpscalar", TraceID: "aaaaaaaaaaaaaaaa", OriginUnixNs: 1_000_000_000},
		Spans: []Span{
			{ID: 1, Kind: KindRun, Name: "xpscalar", Start: 0, End: 10000},
			{ID: 2, Parent: 1, Kind: KindEvalMiss, Name: "gzip", Arg: 2000, Start: 1000, End: 9000},
			{ID: 3, Parent: 2, Kind: KindRemoteGet, Name: "peer", Arg: 1, Start: 2000, End: 8000},
		},
	}
	server := Stream{
		Meta: Meta{Tool: "xpserved", TraceID: "bbbbbbbbbbbbbbbb", OriginUnixNs: 1_000_003_000},
		Spans: []Span{
			{ID: 1, Kind: KindServeGet, Name: "abcd1234", Arg: 1, Start: 0, End: 2000,
				Trace: "aaaaaaaaaaaaaaaa", RemoteParent: 3, Job: "j1"},
			{ID: 2, Parent: 1, Kind: KindEvalDisk, Name: "abcd1234", Start: 500, End: 1500},
		},
	}
	return []Stream{client, server}
}

// The merged exporter's output is deterministic byte for byte: pids follow
// input order, spans keep stream order, and the resolved cross-process
// edge becomes one flow-event pair.
func TestChromeTraceMergedGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceMerged(&buf, fixedStreams()); err != nil {
		t.Fatal(err)
	}
	const golden = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"xpscalar"}},
{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"main"}},
{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"xpserved"}},
{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"main"}},
{"name":"run xpscalar","cat":"run","ph":"X","ts":0,"dur":10,"pid":1,"tid":0,"args":{"arg":0,"id":1,"parent":0}},
{"name":"eval.miss gzip","cat":"eval.miss","ph":"X","ts":1,"dur":8,"pid":1,"tid":0,"args":{"arg":2000,"id":2,"parent":1}},
{"name":"remote.get peer","cat":"remote.get","ph":"X","ts":2,"dur":6,"pid":1,"tid":0,"args":{"arg":1,"id":3,"parent":2}},
{"name":"serve.get abcd1234","cat":"serve.get","ph":"X","ts":3,"dur":2,"pid":2,"tid":0,"args":{"arg":1,"id":1,"job":"j1","parent":0,"remote_parent":3,"trace":"aaaaaaaaaaaaaaaa"}},
{"name":"eval.disk abcd1234","cat":"eval.disk","ph":"X","ts":3.5,"dur":1,"pid":2,"tid":0,"args":{"arg":0,"id":2,"parent":1}},
{"name":"remote","cat":"remote","ph":"s","ts":2,"pid":1,"tid":0,"id":1},
{"name":"remote","cat":"remote","ph":"f","ts":3,"pid":2,"tid":0,"id":1,"bp":"e"}
]}
`
	if got := buf.String(); got != golden {
		t.Errorf("merged chrome trace diverged from golden:\n%s", got)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 11 {
		t.Errorf("merged trace has %d events, want 11", len(doc.TraceEvents))
	}
}

// A single stream through the merged exporter must match the single-process
// exporter exactly — the merge path is a strict superset, not a fork.
func TestMergedSingleStreamMatchesLegacy(t *testing.T) {
	var legacy, merged bytes.Buffer
	if err := WriteChromeTrace(&legacy, "xpscalar", fixedSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTraceMerged(&merged, []Stream{{Meta: Meta{Tool: "xpscalar"}, Spans: fixedSpans()}}); err != nil {
		t.Fatal(err)
	}
	if legacy.String() != merged.String() {
		t.Errorf("single-stream merge diverged from legacy exporter:\nlegacy:\n%s\nmerged:\n%s", legacy.String(), merged.String())
	}
}

// An unresolvable remote parent (no stream with that trace ID, or a span
// missing from the identified stream) must degrade to "no flow", never
// fail the export.
func TestMergedUnresolvedRemoteParent(t *testing.T) {
	streams := fixedStreams()
	streams[1].Spans[0].Trace = "cccccccccccccccc" // no such stream
	var buf bytes.Buffer
	if err := WriteChromeTraceMerged(&buf, streams); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ph":"s"`)) {
		t.Error("flow event emitted for an unresolvable remote parent")
	}
}

func TestWriteSpansMetaRoundtrip(t *testing.T) {
	st := fixedStreams()[1]
	meta, spans, err := ReadSpans(writeStream(t, st.Meta, st.Spans))
	if err != nil {
		t.Fatal(err)
	}
	if meta.TraceID != st.Meta.TraceID || meta.OriginUnixNs != st.Meta.OriginUnixNs || meta.Tool != "xpserved" {
		t.Errorf("meta roundtrip = %+v", meta)
	}
	if len(spans) != 2 || spans[0].Trace != "aaaaaaaaaaaaaaaa" || spans[0].RemoteParent != 3 || spans[0].Job != "j1" {
		t.Errorf("span stamping lost in roundtrip: %+v", spans)
	}
}
