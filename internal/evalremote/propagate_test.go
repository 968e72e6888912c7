// Cross-process propagation through the remote cache tier: a traced
// client lookup carries trace headers, the server continues the trace in
// its handler spans (stamped with the caller's trace ID and span), and a
// tracing-off client sends no headers at all.

package evalremote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/tracing"
)

// headerSniffer records the propagation headers of every request before
// forwarding to the real handler.
type headerSniffer struct {
	mu   sync.Mutex
	seen []tracing.SpanContext
	next http.Handler
}

func (s *headerSniffer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.seen = append(s.seen, tracing.Extract(r.Header))
	s.mu.Unlock()
	s.next.ServeHTTP(w, r)
}

func (s *headerSniffer) contexts() []tracing.SpanContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tracing.SpanContext(nil), s.seen...)
}

func TestClientPropagatesTraceContext(t *testing.T) {
	src := newMapSource()
	src.Store(synthKey(1), testEval(1))
	serverRec := tracing.NewRecorderClock(func() int64 { return 0 })
	serverRec.SetTraceID("5e54ed0000000001")
	mux := http.NewServeMux()
	Register(mux, src, serverRec)
	sniff := &headerSniffer{next: mux}
	srv := httptest.NewServer(sniff)
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, Options{})
	clientRec := tracing.NewRecorderClock(func() int64 { return 0 })
	clientRec.SetTraceID("c11e000000000001")
	ctx := tracing.NewContext(context.Background(), clientRec)
	h := tracing.FromContext(ctx)
	eval := h.Begin(tracing.KindEvalMiss, "gzip", 1000)
	ctx = tracing.WithJobID(tracing.ChildContext(ctx, eval), "j-9")

	if _, ok := c.GetCtx(ctx, synthKey(1)); !ok {
		t.Fatal("warm key missed")
	}
	if _, ok := c.GetCtx(ctx, synthKey(2)); ok {
		t.Fatal("cold key hit")
	}
	if got := c.GetBatchCtx(ctx, []evalengine.Key{synthKey(1), synthKey(2)}); len(got) != 1 {
		t.Fatalf("batch resolved %d keys, want 1", len(got))
	}
	h.End(eval)

	// Every request carried the client's trace ID and job, with a parent
	// span that exists in the client recorder as a remote.* span under the
	// eval span.
	seen := sniff.contexts()
	if len(seen) != 3 {
		t.Fatalf("sniffed %d requests, want 3", len(seen))
	}
	clientSpans := map[tracing.SpanID]tracing.Span{}
	for _, s := range clientRec.Spans() {
		clientSpans[s.ID] = s
	}
	for i, sc := range seen {
		if sc.TraceID != "c11e000000000001" || sc.Job != "j-9" {
			t.Errorf("request %d context = %+v", i, sc)
		}
		parent, ok := clientSpans[sc.Span]
		if !ok {
			t.Fatalf("request %d: propagated span %d not in client recorder", i, sc.Span)
		}
		if parent.Kind != tracing.KindRemoteGet && parent.Kind != tracing.KindRemoteLookup {
			t.Errorf("request %d: propagated span kind %q", i, parent.Kind)
		}
		if parent.Parent != eval.ID {
			t.Errorf("request %d: remote span parent %d, want eval span %d", i, parent.Parent, eval.ID)
		}
	}

	// The server recorded one serve.* span per request, each continuing
	// the client's trace.
	var serveSpans int
	for _, s := range serverRec.Spans() {
		switch s.Kind {
		case tracing.KindServeGet, tracing.KindServeLookup:
			serveSpans++
			if s.Trace != "c11e000000000001" || s.Job != "j-9" || s.RemoteParent == 0 {
				t.Errorf("server span not stamped: %+v", s)
			}
			if _, ok := clientSpans[s.RemoteParent]; !ok {
				t.Errorf("server span remote parent %d not a client span", s.RemoteParent)
			}
		}
	}
	if serveSpans != 3 {
		t.Errorf("server recorded %d serve spans, want 3", serveSpans)
	}
}

func TestClientSendsNoHeadersWhenDisabled(t *testing.T) {
	src := newMapSource()
	src.Store(synthKey(1), testEval(1))
	mux := http.NewServeMux()
	Register(mux, src, nil)
	sniff := &headerSniffer{next: mux}
	srv := httptest.NewServer(sniff)
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, Options{})
	if _, ok := c.Get(synthKey(1)); !ok {
		t.Fatal("warm key missed")
	}
	c.GetBatch([]evalengine.Key{synthKey(1)})
	for i, sc := range sniff.contexts() {
		if sc.Valid() {
			t.Errorf("request %d carried trace context %+v with tracing off", i, sc)
		}
	}
}

// EngineSource records the disk probe as an eval.disk child of the
// handler span, so a merged trace shows which tier answered.
func TestEngineSourceDiskSpan(t *testing.T) {
	disk := newMapSource()
	disk.Store(synthKey(1), testEval(1))
	src := EngineSource{Disk: diskBackend{disk}}
	rec := tracing.NewRecorderClock(func() int64 { return 0 })
	rec.SetTraceID("5e54ed0000000002")
	mux := http.NewServeMux()
	Register(mux, src, rec)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/cache/" + synthKey(1).String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	spans := rec.Spans()
	var serve, diskSpan *tracing.Span
	for i := range spans {
		switch spans[i].Kind {
		case tracing.KindServeGet:
			serve = &spans[i]
		case tracing.KindEvalDisk:
			diskSpan = &spans[i]
		}
	}
	if serve == nil || diskSpan == nil {
		t.Fatalf("spans = %+v, want serve.get and eval.disk", spans)
	}
	if diskSpan.Parent != serve.ID {
		t.Errorf("disk span parent %d, want serve span %d", diskSpan.Parent, serve.ID)
	}
}

// diskBackend adapts a mapSource to the CacheBackend face EngineSource
// expects for its disk tier.
type diskBackend struct{ m *mapSource }

func (d diskBackend) Get(k evalengine.Key) (evalengine.Eval, bool) {
	return d.m.Lookup(context.Background(), k)
}
func (d diskBackend) Put(k evalengine.Key, v evalengine.Eval) { d.m.Store(k, v) }
func (d diskBackend) Flush() error                            { return nil }
func (d diskBackend) Close() error                            { return nil }
func (d diskBackend) Stats() evalengine.BackendStats          { return evalengine.BackendStats{} }
