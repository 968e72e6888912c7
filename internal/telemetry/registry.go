// Package telemetry is the metrics registry xpserved serves: a
// dependency-free registry of scrape-time functions and bounded
// histograms, with Prometheus-text and expvar-style JSON exporters and an
// HTTP handler serving both. A run's record of what happened lives in its
// span stream (internal/tracing); this package answers a long-running
// server's "how much, right now".
//
// The package imports only the standard library and none of the
// framework's other packages, so every layer — the evaluation engine, the
// cache tiers, the job scheduler — can register into it without cycles.
// All types are safe for concurrent use; the one hot-path operation,
// Histogram.Observe, is a binary search plus atomic updates and never
// allocates.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram counts observations into a fixed set of buckets with inclusive
// upper bounds (Prometheus `le` semantics). The bucket layout is immutable
// after construction, so Observe is a binary search plus two atomic adds.
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; non-cumulative
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for i := 1; i < len(bs); i++ {
		if bs[i] == bs[i-1] {
			panic(fmt.Sprintf("telemetry: duplicate histogram bound %v", bs[i]))
		}
	}
	if n := len(bs); n > 0 && math.IsInf(bs[n-1], +1) {
		bs = bs[:n-1] // +Inf is implicit
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v (le is inclusive).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the non-cumulative per-bucket counts; the last entry
// is the implicit +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// attributing each bucket's mass to its upper bound — the usual coarse
// Prometheus-style estimate, good enough for progress reporting and bench
// metrics. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			// +Inf bucket: the best available point estimate is the mean.
			return h.Sum() / float64(total)
		}
	}
	return h.Sum() / float64(total)
}

// ExpBuckets returns n exponentially spaced bounds starting at start and
// multiplying by factor — the standard layout for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered metric: exactly one of histogram and fn is set.
type metric struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	histogram  *Histogram
	fn         func() float64 // read-only metric computed at scrape time
}

// Registry holds named metrics. Registration methods are get-or-create:
// asking for an existing name with the same kind returns the existing
// metric, so layers can be instrumented independently without coordinating
// which one registers first. Asking for an existing name with a different
// kind panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// validName enforces the Prometheus metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

func (r *Registry) lookup(name string) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	return r.metrics[name]
}

// Histogram registers (or returns the existing) histogram under name. The
// bounds of an existing histogram are kept; the new bounds are ignored.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name); m != nil {
		if m.histogram == nil {
			panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.kind))
		}
		return m.histogram
	}
	h := newHistogram(bounds)
	r.metrics[name] = &metric{name: name, help: help, kind: "histogram", histogram: h}
	return h
}

// Func registers a read-only metric whose value is computed by fn at scrape
// time — the bridge for layers that already keep their own atomic counters
// (the evaluation engine, the worker pool, the job scheduler). kind must be
// "counter" or "gauge" and selects the exported Prometheus type.
// Re-registering an existing func metric with the same kind replaces the
// function (latest wins). Func metrics close over their producer, and
// EnableTelemetry is documented as safe to call more than once, with the
// same producer or, after a session is replaced, with a new one: the
// scrape must follow the live object, not a stale closure, and a second
// registration must not panic.
func (r *Registry) Func(name, help, kind string, fn func() float64) {
	if kind != "counter" && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: func metric %s has kind %q, want counter or gauge", name, kind))
	}
	if fn == nil {
		panic(fmt.Sprintf("telemetry: func metric %s needs a function", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name); m != nil {
		if m.fn == nil || m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.kind))
		}
		m.help = help
		m.fn = fn
		return
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kind, fn: fn}
}

// names returns the registered metric names in sorted order, so exports are
// deterministic.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
