package tracing

import (
	"context"
	"net/http"
	"regexp"
	"testing"
)

func TestInjectExtractRoundtrip(t *testing.T) {
	rec := NewRecorderClock(stepClock(1))
	rec.SetTraceID("deadbeefcafef00d")
	ctx := NewContext(context.Background(), rec)
	h := FromContext(ctx)
	sp := h.Begin(KindEvalMiss, "gzip", 1000)
	ctx = WithJobID(ChildContext(ctx, sp), "j-7")

	hdr := http.Header{}
	Inject(ctx, hdr)
	if got := hdr.Get(HeaderTraceID); got != "deadbeefcafef00d" {
		t.Errorf("trace header = %q", got)
	}
	sc := Extract(hdr)
	want := SpanContext{TraceID: "deadbeefcafef00d", Span: sp.ID, Job: "j-7"}
	if sc != want {
		t.Errorf("roundtrip = %+v, want %+v", sc, want)
	}
	if !sc.Valid() {
		t.Error("roundtripped context not valid")
	}
	if got := SpanContextOf(ctx); got != want {
		t.Errorf("SpanContextOf = %+v, want %+v", got, want)
	}
}

func TestInjectWithoutTraceID(t *testing.T) {
	// A clock-injected recorder has no trace ID until one is set: there is
	// nothing to propagate, so the headers must stay untouched.
	ctx := NewContext(context.Background(), NewRecorderClock(stepClock(1)))
	hdr := http.Header{}
	Inject(ctx, hdr)
	if len(hdr) != 0 {
		t.Errorf("headers written without a trace ID: %v", hdr)
	}
}

func TestExtractDegradesGracefully(t *testing.T) {
	if sc := Extract(http.Header{}); sc != (SpanContext{}) {
		t.Errorf("empty headers produced %+v", sc)
	}
	hdr := http.Header{}
	hdr.Set(HeaderTraceID, "deadbeefcafef00d")
	hdr.Set(HeaderParentSpan, "not-a-number")
	sc := Extract(hdr)
	if sc.TraceID != "deadbeefcafef00d" || sc.Span != 0 {
		t.Errorf("malformed parent span: %+v", sc)
	}
	// A request without a trace ID carries no context even if the other
	// headers are present.
	hdr = http.Header{}
	hdr.Set(HeaderParentSpan, "7")
	hdr.Set(HeaderJobID, "j-1")
	if sc := Extract(hdr); sc.Valid() {
		t.Errorf("trace context without a trace ID: %+v", sc)
	}
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

func TestRecorderTraceID(t *testing.T) {
	rec := NewRecorder()
	if rec.TraceID() == "" || rec.Origin() == 0 {
		t.Errorf("NewRecorder missing identity: trace %q origin %d", rec.TraceID(), rec.Origin())
	}
	rec.SetTraceID("0123456789abcdef")
	if got := rec.TraceID(); got != "0123456789abcdef" {
		t.Errorf("SetTraceID not applied: %q", got)
	}
	rec.SetTraceID("") // empty must not erase identity
	if rec.TraceID() != "0123456789abcdef" {
		t.Error("empty SetTraceID erased the trace ID")
	}
	var nilRec *Recorder
	nilRec.SetTraceID("x")
	nilRec.SetOrigin(1)
	if nilRec.TraceID() != "" || nilRec.Origin() != 0 {
		t.Error("nil recorder not inert")
	}
}

func TestBeginRemote(t *testing.T) {
	rec := NewRecorderClock(stepClock(1))
	h := Root(rec)
	sc := SpanContext{TraceID: "deadbeefcafef00d", Span: 42, Job: "j-3"}
	sp := h.BeginRemote(KindServeGet, "abcd1234", 1, sc)
	h.End(sp)
	got := rec.Spans()[0]
	if got.Trace != sc.TraceID || got.RemoteParent != sc.Span || got.Job != sc.Job {
		t.Errorf("remote span not stamped: %+v", got)
	}
	if got.Parent != 0 {
		t.Errorf("root remote span has local parent %d", got.Parent)
	}
	// Disabled handle: inert span, no panic.
	var off Handle
	if s := off.BeginRemote(KindServeGet, "", 0, sc); s.ID != 0 {
		t.Errorf("disabled BeginRemote produced %+v", s)
	}
	if Root(nil).Enabled() {
		t.Error("Root(nil) enabled")
	}
	if !Root(rec).Enabled() {
		t.Error("Root(rec) disabled")
	}
}

// BenchmarkDisabledPropagation guards the 0 allocs/op contract of the
// propagation seam when tracing is off: Inject must bail after one context
// lookup without touching the header map.
func BenchmarkDisabledPropagation(b *testing.B) {
	ctx := context.Background()
	hdr := http.Header{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Inject(ctx, hdr)
		if sc := SpanContextOf(ctx); sc.Valid() {
			b.Fatal("unexpected trace context")
		}
	}
	if len(hdr) != 0 {
		b.Fatal("disabled Inject wrote headers")
	}
}

// FuzzExtract feeds arbitrary propagation headers to Extract, which every
// peer runs on every cache request. No input may panic, and a context it
// accepts survives Inject → Extract unchanged.
//
//	go test ./internal/tracing -run '^$' -fuzz FuzzExtract -fuzztime 60s
func FuzzExtract(f *testing.F) {
	f.Add("deadbeefcafef00d", "42", "j-7")
	f.Add("deadbeefcafef00d", "not-a-number", "")
	f.Add("", "7", "j-1")
	f.Add("x", "18446744073709551616", "job\nid")
	f.Add("deadbeefcafef00d", "-1", " ")
	f.Fuzz(func(t *testing.T, traceID, parent, job string) {
		hdr := http.Header{}
		hdr.Set(HeaderTraceID, traceID)
		hdr.Set(HeaderParentSpan, parent)
		hdr.Set(HeaderJobID, job)
		sc := Extract(hdr)
		if !sc.Valid() {
			if sc != (SpanContext{}) {
				t.Fatalf("invalid context carries fields: %+v", sc)
			}
			return
		}
		rec := NewRecorderClock(stepClock(1))
		rec.SetTraceID(sc.TraceID)
		ctx := context.WithValue(context.Background(), handleKey{}, &Handle{rec: rec, parent: sc.Span})
		out := http.Header{}
		Inject(WithJobID(ctx, sc.Job), out)
		if got := Extract(out); got != sc {
			t.Fatalf("Inject → Extract = %+v, want %+v", got, sc)
		}
	})
}
