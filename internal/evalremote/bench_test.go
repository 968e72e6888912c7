package evalremote

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"xpscalar/internal/evalengine"
)

func startBenchPeer(b *testing.B, src Source) *httptest.Server {
	b.Helper()
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	return srv
}

// BenchmarkEvalRemoteHit measures the remote-tier read-through path over
// loopback HTTP: one GET to the owning peer, one bounded read of the body,
// header, length and checksum checks, fixed-layout decode.
// This is the latency a fleet member pays per evaluation pulled from a
// warm peer instead of a simulation — the number to weigh against the
// multi-millisecond simulations it replaces.
func BenchmarkEvalRemoteHit(b *testing.B) {
	src := newMapSource()
	srv := startBenchPeer(b, src)
	c, err := NewClient([]string{srv.URL}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	k := synthKey(1)
	src.Store(k, testEval(1.5))
	// Warm the TCP connection and the runtime so the measured window is
	// the steady-state hit path, not connection establishment.
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss on a stored record")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss on a stored record")
		}
	}
}

// BenchmarkEvalRemoteBatchHit measures the batched variant: 16 keys
// resolved by one POST /v1/cache/lookup, the shape a warm lockstep
// group's read-through produces. ns/op is per batch, not per key.
func BenchmarkEvalRemoteBatchHit(b *testing.B) {
	src := newMapSource()
	srv := startBenchPeer(b, src)
	c, err := NewClient([]string{srv.URL}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]evalengine.Key, 16)
	for i := range keys {
		keys[i] = synthKey(i)
		src.Store(keys[i], testEval(float64(i)))
	}
	// Warm the TCP connection and the runtime, as in the scalar variant.
	for i := 0; i < 4; i++ {
		if got := c.GetBatch(keys); len(got) != len(keys) {
			b.Fatalf("batch resolved %d/%d keys", len(got), len(keys))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.GetBatch(keys); len(got) != len(keys) {
			b.Fatalf("batch resolved %d/%d keys", len(got), len(keys))
		}
	}
}
