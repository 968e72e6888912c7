package evalremote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

const (
	// queueDepth bounds the write-behind queue; a full queue drops the
	// record.
	queueDepth = 256
	// downFor is how long a peer that failed a request is skipped.
	downFor = 3 * time.Second
	// maxRecordBytes bounds a record or lookup body, read or written, on
	// both the client and the server.
	maxRecordBytes = 16 << 20
	// maxIdleConnsPerHost keeps enough warm connections per peer for the
	// engine's concurrent lookups (Go's default keeps two).
	maxIdleConnsPerHost = 32
)

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// Timeout bounds each HTTP request end to end (default 2s): long
	// enough for a healthy LAN peer, short enough that a hung one costs
	// less than a handful of simulations.
	Timeout time.Duration
}

// peer is one remote cache server.
type peer struct {
	base      string       // normalized base URL, no trailing slash
	seed      uint64       // rendezvous seed, see peerSeed
	downUntil atomic.Int64 // UnixNano until which the peer is skipped
}

func (p *peer) available() bool {
	return time.Now().UnixNano() >= p.downUntil.Load()
}

// putReq is one unit of work for the write-behind goroutine.
type putReq struct {
	key     evalengine.Key
	val     evalengine.Eval
	barrier chan struct{} // non-nil: flush marker, close when reached
}

// Client is the client face of the remote cache tier: an
// evalengine.CacheBackend that shards keys over its peers by rendezvous
// hash and fails open to a miss on every failure mode. Safe for
// concurrent use.
type Client struct {
	peers     []*peer
	timeout   time.Duration
	transport *http.Transport
	http      *http.Client

	queue chan putReq
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	errors  atomic.Uint64
	writes  atomic.Uint64
	dropped atomic.Uint64

	hist atomic.Pointer[telemetry.Histogram]
}

// NewClient builds a client over the given peer base URLs (e.g.
// "http://host:9090"). The peer list order is irrelevant to ownership,
// but every process must be configured with the same set for the
// sharding to line up.
func NewClient(peers []string, o Options) (*Client, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("evalremote: no peers")
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	tr := &http.Transport{
		MaxIdleConnsPerHost: maxIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{
		peers:     make([]*peer, len(peers)),
		timeout:   o.Timeout,
		transport: tr,
		http:      &http.Client{Transport: tr},
		queue:     make(chan putReq, queueDepth),
	}
	for i, raw := range peers {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("evalremote: peer %q: need a scheme://host base URL", raw)
		}
		base := strings.TrimRight(u.String(), "/")
		c.peers[i] = &peer{base: base, seed: peerSeed(base)}
	}
	c.wg.Add(1)
	go c.writer()
	return c, nil
}

// fail counts a failed request and marks its peer down.
func (c *Client) fail(p *peer) {
	c.errors.Add(1)
	p.downUntil.Store(time.Now().Add(downFor).UnixNano())
}

func (c *Client) observe(start time.Time) {
	if h := c.hist.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// newRequest builds one request bounded by the client timeout. The
// deadline stays detached from the caller's context on purpose: cache
// lookups must never inherit a nearly expired run deadline and turn it
// into a peer failure.
func (c *Client) newRequest(method, url string, body io.Reader) (*http.Request, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return req, cancel, nil
}

// drain discards what is left of a short response body so the connection
// can be reused.
func drain(r io.Reader) { io.Copy(io.Discard, io.LimitReader(r, 4096)) }

// bodyReader reads a record body up to maxRecordBytes and remembers a
// failed read, so a connection that broke mid-body (a peer failure) is
// told apart from a body that arrived whole but does not decode (a bad
// record).
type bodyReader struct {
	io.LimitedReader
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.LimitedReader.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// Get implements evalengine.CacheBackend: one GET to the key's owning
// peer. Every failure — peer down, transport error, undecodable record —
// is a miss, never an error.
func (c *Client) Get(k evalengine.Key) (evalengine.Eval, bool) {
	return c.GetCtx(context.Background(), k)
}

// GetCtx implements evalengine.CtxGetter: the same lookup, recorded as a
// remote.get span under the context's current span. With tracing off the
// context costs one branch and nothing else.
func (c *Client) GetCtx(ctx context.Context, k evalengine.Key) (evalengine.Eval, bool) {
	if p := c.owner(k); p.available() {
		th := tracing.FromContext(ctx)
		sp := th.Begin(tracing.KindRemoteGet, p.base, 1)
		start := time.Now()
		val, ok := c.get(p, k)
		c.observe(start)
		th.End(sp)
		if ok {
			c.hits.Add(1)
			return val, true
		}
	}
	c.misses.Add(1)
	return evalengine.Eval{}, false
}

// get is one GET of k from p; false is a miss. A request that fails marks
// p down; a record that arrives whole but does not decode only counts an
// error.
func (c *Client) get(p *peer, k evalengine.Key) (evalengine.Eval, bool) {
	req, cancel, err := c.newRequest(http.MethodGet, p.base+"/v1/cache/"+k.String(), nil)
	if err != nil {
		c.fail(p)
		return evalengine.Eval{}, false
	}
	defer cancel()
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail(p)
		return evalengine.Eval{}, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body := &bodyReader{LimitedReader: io.LimitedReader{R: resp.Body, N: maxRecordBytes}}
		val, err := evalstore.DecodeRecord(body)
		if err != nil {
			if body.err != nil {
				c.fail(p)
			} else {
				c.errors.Add(1)
			}
			return evalengine.Eval{}, false
		}
		return val, true
	case http.StatusNotFound:
		drain(resp.Body)
	default:
		drain(resp.Body)
		c.fail(p)
	}
	return evalengine.Eval{}, false
}

// lookupRequest and lookupResponse are the POST /v1/cache/lookup wire
// shape: hex keys in, a hex-key → record-bytes map out (records base64
// under encoding/json's []byte rule).
type lookupRequest struct {
	Keys []string `json:"keys"`
}

type lookupResponse struct {
	Hits map[string][]byte `json:"hits"`
}

// GetBatch implements evalengine.BatchGetter: the keys are grouped by
// owning peer and each group is one POST /v1/cache/lookup. Failure
// semantics match Get — a peer that cannot answer contributes misses.
func (c *Client) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	return c.GetBatchCtx(context.Background(), keys)
}

// GetBatchCtx implements evalengine.CtxBatchGetter: one remote.lookup
// span per owning-peer group.
func (c *Client) GetBatchCtx(ctx context.Context, keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	found := make(map[evalengine.Key]evalengine.Eval)
	groups := make(map[*peer][]evalengine.Key)
	for _, k := range keys {
		p := c.owner(k)
		groups[p] = append(groups[p], k)
	}
	th := tracing.FromContext(ctx)
	for p, group := range groups {
		if !p.available() {
			c.misses.Add(uint64(len(group)))
			continue
		}
		sp := th.Begin(tracing.KindRemoteLookup, p.base, int64(len(group)))
		start := time.Now()
		hits, err := c.lookup(p, group)
		c.observe(start)
		th.End(sp)
		if err != nil {
			c.fail(p)
			c.misses.Add(uint64(len(group)))
			continue
		}
		for _, k := range group {
			body, ok := hits[k.String()]
			if !ok {
				c.misses.Add(1)
				continue
			}
			val, err := evalstore.DecodeRecord(bytes.NewReader(body))
			if err != nil {
				// One bad record is that record's problem, not the batch's.
				c.errors.Add(1)
				c.misses.Add(1)
				continue
			}
			c.hits.Add(1)
			found[k] = val
		}
	}
	return found
}

func (c *Client) lookup(p *peer, keys []evalengine.Key) (map[string][]byte, error) {
	hexKeys := make([]string, len(keys))
	for i, k := range keys {
		hexKeys[i] = k.String()
	}
	body, err := json.Marshal(lookupRequest{Keys: hexKeys})
	if err != nil {
		return nil, err
	}
	req, cancel, err := c.newRequest(http.MethodPost, p.base+"/v1/cache/lookup", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer cancel()
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return nil, fmt.Errorf("evalremote: %s: lookup status %d", p.base, resp.StatusCode)
	}
	var lr lookupResponse
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxRecordBytes))
	if err := dec.Decode(&lr); err != nil {
		return nil, err
	}
	return lr.Hits, nil
}

// Put implements evalengine.CacheBackend: the record is enqueued for the
// write-behind goroutine; a full queue or a closed client drops it
// (counted). Remote record loss is harmless — the faster tiers already
// hold the evaluation.
func (c *Client) Put(k evalengine.Key, val evalengine.Eval) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		c.dropped.Add(1)
		return
	}
	select {
	case c.queue <- putReq{key: k, val: val}:
	default:
		c.dropped.Add(1)
	}
}

func (c *Client) writer() {
	defer c.wg.Done()
	for req := range c.queue {
		if req.barrier != nil {
			close(req.barrier)
			continue
		}
		if c.put(req.key, req.val) {
			c.writes.Add(1)
		} else {
			c.dropped.Add(1)
		}
	}
}

// put delivers one record to its owner; false drops it. A peer that is
// down is not tried, so a hung peer costs the queue one timeout, not one
// per record.
func (c *Client) put(k evalengine.Key, val evalengine.Eval) bool {
	p := c.owner(k)
	if !p.available() {
		return false
	}
	var buf bytes.Buffer
	if err := evalstore.EncodeRecord(&buf, val); err != nil {
		c.errors.Add(1)
		return false
	}
	req, cancel, err := c.newRequest(http.MethodPut, p.base+"/v1/cache/"+k.String(), &buf)
	if err != nil {
		c.fail(p)
		return false
	}
	defer cancel()
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail(p)
		return false
	}
	defer resp.Body.Close()
	drain(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		c.fail(p)
		return false
	}
	return true
}

// Flush implements evalengine.CacheBackend: it blocks until every Put
// accepted before the call has been delivered or dropped. It always
// returns nil — remote delivery failures are counters, never run
// failures.
func (c *Client) Flush() error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil
	}
	b := make(chan struct{})
	c.queue <- putReq{barrier: b}
	c.mu.RUnlock()
	<-b
	return nil
}

// Close implements evalengine.CacheBackend: it drains the queue, stops
// the writer, and releases idle connections. Always nil, for the same
// reason as Flush. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.queue)
	c.wg.Wait()
	c.transport.CloseIdleConnections()
	return nil
}

// Stats implements evalengine.CacheBackend, populating only the Remote*
// family so a Tiered sum stays a disjoint merge.
func (c *Client) Stats() evalengine.BackendStats {
	return evalengine.BackendStats{
		RemoteHits:    c.hits.Load(),
		RemoteMisses:  c.misses.Load(),
		RemoteErrors:  c.errors.Load(),
		RemoteWrites:  c.writes.Load(),
		RemoteDropped: c.dropped.Load(),
	}
}

// EnableTelemetry registers the client's request latency histogram. The
// Remote* counters are exported by the engine from BackendStats, so they
// are not duplicated here.
func (c *Client) EnableTelemetry(reg *telemetry.Registry) {
	c.hist.Store(reg.Histogram("xpscalar_eval_remote_seconds",
		"wall time of remote cache requests", telemetry.ExpBuckets(1e-5, 2, 16)))
}
