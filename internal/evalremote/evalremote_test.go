// Failure semantics of the remote tier: whatever the network does — dead
// peer, slow or hung peer, corrupt or stale-format record bodies, a peer
// dying under concurrent load — the client must degrade to a cache miss
// and a counter, never an error into the evaluation path, and Flush/Close
// must stay nil so no run's exit code ever depends on peer health.

package evalremote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/sim"
)

// synthKey derives a distinct, uniformly distributed key per index.
func synthKey(i int) evalengine.Key {
	return evalengine.Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

func testEval(score float64) evalengine.Eval {
	r := sim.Result{Workload: "unit"}
	r.Instructions = 5000
	r.Cycles = 7321
	r.LoadsL1 = 1200
	return evalengine.Eval{Result: r, Score: score}
}

// mapSource is an in-memory Source for handler tests.
type mapSource struct {
	mu sync.Mutex
	m  map[evalengine.Key]evalengine.Eval
}

// encodedRecord returns a current-format record, so tests that corrupt
// one stay armed across format bumps.
func encodedRecord(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := evalstore.EncodeRecord(&buf, testEval(1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newMapSource() *mapSource {
	return &mapSource{m: make(map[evalengine.Key]evalengine.Eval)}
}

func (s *mapSource) Lookup(_ context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *mapSource) Store(k evalengine.Key, v evalengine.Eval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = v
}

func (s *mapSource) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// startPeer serves a Source over the real routes on a loopback listener.
func startPeer(t *testing.T, src Source) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestClient(t *testing.T, peers []string, o Options) *Client {
	t.Helper()
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	c, err := NewClient(peers, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRingOwnership: ownership is a pure function of the peer set — the
// list order must not matter — and every peer of a small fleet owns a
// healthy share of a uniform key population.
func TestRingOwnership(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	a := newTestClient(t, peers, Options{})
	b := newTestClient(t, []string{peers[2], peers[0], peers[1]}, Options{})
	counts := make(map[string]int)
	const n = 4096
	for i := 0; i < n; i++ {
		k := synthKey(i)
		pa, pb := a.owner(k).base, b.owner(k).base
		if pa != pb {
			t.Fatalf("key %d: owner %q vs %q for identical peer sets", i, pa, pb)
		}
		counts[pa]++
	}
	for _, p := range peers {
		if c := counts[p]; c < n/10 {
			t.Fatalf("peer %s owns %d/%d keys — ownership badly unbalanced: %v", p, c, n, counts)
		}
	}
}

// TestRoundTrip: Put → Flush → Get through a real HTTP peer returns the
// exact value and counts one write and one hit.
func TestRoundTrip(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)
	c := newTestClient(t, []string{srv.URL}, Options{})

	k := synthKey(1)
	want := testEval(1.25)
	c.Put(k, want)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if src.len() != 1 {
		t.Fatalf("server holds %d records after flush, want 1", src.len())
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("Get missed a flushed record")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := c.Get(synthKey(2)); ok {
		t.Fatal("Get hit an absent key")
	}
	st := c.Stats()
	if st.RemoteWrites != 1 || st.RemoteHits != 1 || st.RemoteMisses != 1 || st.RemoteErrors != 0 {
		t.Fatalf("stats %+v, want 1 write, 1 hit, 1 miss, 0 errors", st)
	}
}

// TestGetBatch: a mixed batch resolves exactly the present keys in one
// lookup per peer, and the absent ones count as misses.
func TestGetBatch(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)
	c := newTestClient(t, []string{srv.URL}, Options{})

	var keys []evalengine.Key
	want := make(map[evalengine.Key]evalengine.Eval)
	for i := 0; i < 8; i++ {
		k := synthKey(i)
		keys = append(keys, k)
		if i%2 == 0 {
			v := testEval(float64(i))
			src.Store(k, v)
			want[k] = v
		}
	}
	got := c.GetBatch(keys)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch diverged:\n got %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.RemoteHits != 4 || st.RemoteMisses != 4 {
		t.Fatalf("stats %+v, want 4 hits, 4 misses", st)
	}
}

// TestPeerDown: a dead peer yields misses and nil Flush/Close — never an
// error — and once its first request fails, lookups stop paying the dial.
func TestPeerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here anymore
	c := newTestClient(t, []string{url}, Options{Timeout: 200 * time.Millisecond})

	for i := 0; i < 5; i++ {
		if _, ok := c.Get(synthKey(i)); ok {
			t.Fatal("Get hit against a dead peer")
		}
	}
	c.Put(synthKey(9), testEval(1))
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush against a dead peer: %v", err)
	}
	st := c.Stats()
	if st.RemoteMisses != 5 || st.RemoteErrors == 0 || st.RemoteDropped == 0 {
		t.Fatalf("stats %+v, want 5 misses, some errors, the write dropped", st)
	}
	// The peer is marked down now: a batch against it must fast-miss
	// without touching the network.
	errs := st.RemoteErrors
	if got := c.GetBatch([]evalengine.Key{synthKey(20), synthKey(21)}); len(got) != 0 {
		t.Fatalf("batch hit against a dead peer: %v", got)
	}
	if st := c.Stats(); st.RemoteErrors != errs {
		t.Fatalf("batch against a down peer went to the network: errors %d -> %d", errs, st.RemoteErrors)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close against a dead peer: %v", err)
	}
}

// TestPeerSlow: a peer slower than the request timeout is a miss, not a
// stall — the lookup returns within a few timeouts, never the server's
// sleep.
func TestPeerSlow(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{Timeout: 50 * time.Millisecond})

	start := time.Now()
	if _, ok := c.Get(synthKey(1)); ok {
		t.Fatal("Get hit against a hung peer")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("slow-peer lookup took %v, want bounded by the timeout", wall)
	}
	if st := c.Stats(); st.RemoteErrors == 0 || st.RemoteMisses == 0 {
		t.Fatalf("stats %+v, want the timeout counted as error+miss", st)
	}
}

// TestCorruptAndWrongVersionRecords: a body that is not a valid current-
// format record — garbage or a stale format version — is a miss, exactly
// like a quarantined disk record, for both the single and batched reads.
func TestCorruptAndWrongVersionRecords(t *testing.T) {
	// A whole current-format record with its version digit stepped back
	// in place, derived from an encoded record so the next format bump
	// keeps this case armed.
	stale := encodedRecord(t)
	hdr := stale[:bytes.IndexByte(stale, '\n')+1]
	hdr[len(hdr)-2]--
	for name, body := range map[string]string{
		"garbage":       "not a record at all",
		"wrong_version": string(stale),
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/lookup") {
					fmt.Fprintf(w, `{"hits":{"%s":"%s"}}`, synthKey(1).String(), "AAAA")
					return
				}
				fmt.Fprint(w, body)
			}))
			t.Cleanup(srv.Close)
			c := newTestClient(t, []string{srv.URL}, Options{})
			if _, ok := c.Get(synthKey(1)); ok {
				t.Fatal("Get decoded a corrupt record")
			}
			if got := c.GetBatch([]evalengine.Key{synthKey(1)}); len(got) != 0 {
				t.Fatalf("batch decoded a corrupt record: %v", got)
			}
			st := c.Stats()
			if st.RemoteHits != 0 || st.RemoteMisses != 2 || st.RemoteErrors == 0 {
				t.Fatalf("stats %+v, want 0 hits, 2 misses, errors counted", st)
			}
		})
	}
}

// TestCorruptRecordKeepsPeer: a record that arrives whole but does not
// decode is a miss and an error, not a peer failure — the next key from
// the same peer is still fetched.
func TestCorruptRecordKeepsPeer(t *testing.T) {
	src := newMapSource()
	good := testEval(4)
	src.Store(synthKey(2), good)
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cache/"+synthKey(1).String() {
			fmt.Fprint(w, "not a record at all")
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := newTestClient(t, []string{srv.URL}, Options{})

	if _, ok := c.Get(synthKey(1)); ok {
		t.Fatal("Get decoded a corrupt record")
	}
	got, ok := c.Get(synthKey(2))
	if !ok {
		t.Fatal("a corrupt record cut off a healthy peer: the good key missed")
	}
	if !reflect.DeepEqual(got, good) {
		t.Fatalf("good key diverged:\n got %+v\nwant %+v", got, good)
	}
	if st := c.Stats(); st.RemoteHits != 1 || st.RemoteMisses != 1 || st.RemoteErrors != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 error", st)
	}
}

// TestBrokenBodyMarksPeerDown: unlike a whole body that does not decode,
// a connection that breaks mid-body is a peer failure — the peer is
// marked down and its next key misses without a request.
func TestBrokenBodyMarksPeerDown(t *testing.T) {
	rec := encodedRecord(t)
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		// Promise more bytes than are sent: the server closes the
		// connection after writing the first half of a valid record.
		w.Header().Set("Content-Length", "4096")
		w.Write(rec[:len(rec)/2])
	}))
	t.Cleanup(srv.Close)
	c := newTestClient(t, []string{srv.URL}, Options{})

	for i := 0; i < 2; i++ {
		if _, ok := c.Get(synthKey(i)); ok {
			t.Fatal("Get decoded a broken body")
		}
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("%d requests, want 1: the broken body should mark the peer down", n)
	}
	if st := c.Stats(); st.RemoteMisses != 2 || st.RemoteErrors != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 error", st)
	}
}

// TestFlushHungPeerBounded: queued Puts to a peer that never answers cost
// the writer one timeout, not one per record, so Flush — every tool's
// shutdown path — stays bounded.
func TestFlushHungPeerBounded(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{Timeout: 50 * time.Millisecond})

	for i := 0; i < 64; i++ {
		c.Put(synthKey(i), testEval(1))
	}
	start := time.Now()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("Flush of 64 Puts to a hung peer took %v, want under 1s", wall)
	}
	if st := c.Stats(); st.RemoteWrites != 0 || st.RemoteDropped != 64 {
		t.Fatalf("stats %+v, want all 64 writes dropped", st)
	}
}

// TestPeerDeathConcurrent: eight goroutines read and write through one
// client while its only peer dies under them. Every call returns, every
// hit is the stored value, and Flush/Close stay nil — the shared
// mark-down and counters under the race detector.
func TestPeerDeathConcurrent(t *testing.T) {
	src := newMapSource()
	want := make(map[evalengine.Key]evalengine.Eval)
	var keys []evalengine.Key
	for i := 0; i < 32; i++ {
		k := synthKey(i)
		keys = append(keys, k)
		if i%2 == 0 {
			want[k] = testEval(float64(i))
			src.Store(k, want[k])
		}
	}
	mux := http.NewServeMux()
	Register(mux, src, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := newTestClient(t, []string{srv.URL}, Options{})

	check := func(k evalengine.Key, got evalengine.Eval) {
		if w, ok := want[k]; !ok || !reflect.DeepEqual(got, w) {
			t.Errorf("key %s: hit %+v, want stored %+v (stored: %v)", k, got, w, ok)
		}
	}
	const workers, iters = 8, 120
	mid := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i == iters/4 {
					once.Do(func() { close(mid) })
				}
				k := keys[(w+i)%len(keys)]
				switch i % 3 {
				case 0:
					if got, ok := c.Get(k); ok {
						check(k, got)
					}
				case 1:
					for k, got := range c.GetBatch(keys[:8]) {
						check(k, got)
					}
				case 2:
					c.Put(synthKey(1000+w*iters+i), testEval(-1))
				}
			}
		}(w)
	}
	<-mid
	srv.Close()
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after peer death: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after peer death: %v", err)
	}
	if st := c.Stats(); st.RemoteHits == 0 {
		t.Fatalf("stats %+v, want hits before the peer died", st)
	}
}

// TestQueueOverflowDrops: Puts past the queue bound are dropped and
// counted, never blocking the caller.
func TestQueueOverflowDrops(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	c := newTestClient(t, []string{srv.URL}, Options{Timeout: 50 * time.Millisecond})

	for i := 0; i < queueDepth+32; i++ {
		c.Put(synthKey(i), testEval(1)) // must never block
	}
	if st := c.Stats(); st.RemoteDropped == 0 {
		t.Fatalf("stats %+v, want overflow drops counted", st)
	}
}

// TestServerRejects: malformed requests get 4xx, never a panic or a
// stored record.
func TestServerRejects(t *testing.T) {
	src := newMapSource()
	srv := startPeer(t, src)

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/cache/nothex"); code != http.StatusBadRequest {
		t.Fatalf("bad key GET: %d, want 400", code)
	}
	if code := get("/v1/cache/" + synthKey(1).String()); code != http.StatusNotFound {
		t.Fatalf("absent key GET: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cache/"+synthKey(1).String(),
		strings.NewReader("not a record"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT: %d, want 400", resp.StatusCode)
	}
	if src.len() != 0 {
		t.Fatal("corrupt PUT stored a record")
	}
	resp, err = http.Post(srv.URL+"/v1/cache/lookup", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated lookup: %d, want 400", resp.StatusCode)
	}
}

// TestSharding: with two peers, every key's record lands on exactly its
// owner, and a two-peer GetBatch resolves keys from both.
func TestSharding(t *testing.T) {
	srcA, srcB := newMapSource(), newMapSource()
	srvA, srvB := startPeer(t, srcA), startPeer(t, srcB)
	c := newTestClient(t, []string{srvA.URL, srvB.URL}, Options{})

	var keys []evalengine.Key
	for i := 0; i < 64; i++ {
		k := synthKey(i)
		keys = append(keys, k)
		c.Put(k, testEval(float64(i)))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if srcA.len() == 0 || srcB.len() == 0 {
		t.Fatalf("sharding sent everything one way: %d vs %d", srcA.len(), srcB.len())
	}
	if total := srcA.len() + srcB.len(); total != 64 {
		t.Fatalf("peers hold %d records, want 64", total)
	}
	byURL := map[string]*mapSource{srvA.URL: srcA, srvB.URL: srcB}
	for _, k := range keys {
		owner := c.owner(k).base
		if _, ok := byURL[owner].Lookup(context.Background(), k); !ok {
			t.Fatalf("key %s missing from its owner %s", k, owner)
		}
	}
	got := c.GetBatch(keys)
	if len(got) != 64 {
		t.Fatalf("two-peer batch resolved %d/64 keys", len(got))
	}
}
