// Spans of the remote cache tier: the client records each round trip
// under the requesting span, and the server records each handler
// invocation as a root of its own trace.

package evalremote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/tracing"
)

// The client's remote.get and remote.lookup spans are children of the
// evaluation span that asked, and the server's serve.* spans are roots.
func TestClientSpansUnderEval(t *testing.T) {
	src := newMapSource()
	src.Store(synthKey(1), testEval(1))
	serverRec := tracing.NewRecorderClock(func() int64 { return 0 })
	mux := http.NewServeMux()
	Register(mux, src, serverRec)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newTestClient(t, []string{srv.URL}, Options{})
	clientRec := tracing.NewRecorderClock(func() int64 { return 0 })
	ctx := tracing.NewContext(context.Background(), clientRec)
	h := tracing.FromContext(ctx)
	eval := h.Begin(tracing.KindEvalMiss, "gzip", 1000)
	ctx = tracing.ChildContext(ctx, eval)

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

	var gets, lookups int
	for _, s := range clientRec.Spans() {
		switch s.Kind {
		case tracing.KindRemoteGet:
			gets++
		case tracing.KindRemoteLookup:
			lookups++
		default:
			continue
		}
		if s.Parent != eval.ID {
			t.Errorf("%s span parent %d, want eval span %d", s.Kind, s.Parent, eval.ID)
		}
	}
	if gets != 2 || lookups != 1 {
		t.Errorf("client recorded %d remote.get and %d remote.lookup spans, want 2 and 1", gets, lookups)
	}

	var serveSpans int
	for _, s := range serverRec.Spans() {
		switch s.Kind {
		case tracing.KindServeGet, tracing.KindServeLookup:
			serveSpans++
			if s.Parent != 0 {
				t.Errorf("server span %+v is not a root", s)
			}
		}
	}
	if serveSpans != 3 {
		t.Errorf("server recorded %d serve spans, want 3", serveSpans)
	}
}

// EngineSource records the disk probe as an eval.disk child of the
// handler span, so the server's trace shows which tier answered.
func TestEngineSourceDiskSpan(t *testing.T) {
	disk := newMapSource()
	disk.Store(synthKey(1), testEval(1))
	src := EngineSource{Disk: diskBackend{disk}}
	rec := tracing.NewRecorderClock(func() int64 { return 0 })
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
