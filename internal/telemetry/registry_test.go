package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The registry is hammered from the hot path of a parallel search and
// scraped while it is, so the contract is exercised under the race
// detector (make race-hot runs this package with -race): concurrent
// observations, get-or-create of one histogram, func re-registration and
// scrapes of both exporters.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 10, 100})
	var served atomic.Uint64

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 200))
				served.Add(1)
				// Get-or-create must return the same metric under contention.
				if r.Histogram("h_seconds", "", nil) != h {
					t.Error("Histogram returned a different instance")
					return
				}
				if i%100 == 0 {
					r.Func("served_total", "", "counter", func() float64 { return float64(served.Load()) })
					if w%2 == 0 {
						_ = r.WritePrometheus(io.Discard)
					} else {
						_ = r.WriteJSON(io.Discard)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, wantSum)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("served_total %d\n", workers*perWorker); !strings.Contains(sb.String(), want) {
		t.Errorf("func metric does not read its producer, want %q in:\n%s", want, sb.String())
	}
}

// Bucket edges use Prometheus le semantics: the upper bound is inclusive.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0, 1} { // <= 1
		h.Observe(v)
	}
	for _, v := range []float64{1.0000001, 10} { // (1, 10]
		h.Observe(v)
	}
	h.Observe(100)  // (10, 100]
	h.Observe(1e9)  // +Inf bucket
	h.Observe(-5)   // below every bound lands in the first bucket
	h.Observe(10.5) // (10, 100]

	want := []uint64{3, 2, 2, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("BucketCounts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all mass in the (1,2] bucket
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %g, want upper bound 2", got)
	}
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("p99 = %g, want upper bound 2", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-4, 10, 4)
	want := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// A name registered as one kind cannot be registered as another, in
// either direction between a func metric and a histogram.
func TestKindMismatchPanics(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"histogram over func": func(r *Registry) {
			r.Func("m_total", "", "counter", func() float64 { return 0 })
			r.Histogram("m_total", "", []float64{1})
		},
		"func over histogram": func(r *Registry) {
			r.Histogram("m_seconds", "", []float64{1})
			r.Func("m_seconds", "", "gauge", func() float64 { return 0 })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registering a second kind under one name did not panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}

// An invalid name would make the whole exposition unscrapable, so every
// registration method refuses one.
func TestInvalidNamePanics(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"Histogram": func(r *Registry) { r.Histogram("0bad name", "", []float64{1}) },
		"Func":      func(r *Registry) { r.Func("0bad name", "", "gauge", func() float64 { return 1 }) },
	} {
		r := NewRegistry()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registering an invalid metric name did not panic", name)
				}
			}()
			register(r)
		}()
		if n := len(r.names()); n != 0 {
			t.Errorf("%s: the invalid name was registered (%d metrics)", name, n)
		}
	}
}

// The Prometheus rendering is pinned against a golden: sorted names, HELP
// and TYPE comments, cumulative histogram buckets with an explicit +Inf.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Func("xp_requests_total", "requests served", "counter", func() float64 { return 42 })
	r.Func("xp_depth", "current depth", "gauge", func() float64 { return 2.5 })
	r.Func("xp_live", "computed at scrape time", "gauge", func() float64 { return 7 })
	h := r.Histogram("xp_latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	const want = `# HELP xp_depth current depth
# TYPE xp_depth gauge
xp_depth 2.5
# HELP xp_latency_seconds request latency
# TYPE xp_latency_seconds histogram
xp_latency_seconds_bucket{le="0.01"} 1
xp_latency_seconds_bucket{le="0.1"} 3
xp_latency_seconds_bucket{le="1"} 3
xp_latency_seconds_bucket{le="+Inf"} 4
xp_latency_seconds_sum 5.105
xp_latency_seconds_count 4
# HELP xp_live computed at scrape time
# TYPE xp_live gauge
xp_live 7
# HELP xp_requests_total requests served
# TYPE xp_requests_total counter
xp_requests_total 42
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("Prometheus text mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2.5, "2.5"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{0.0001, "0.0001"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Func metrics close over their producer, so re-registration must be
// latest-wins: after a producer swap (a registry wired to a session, then
// to its replacement) the scrape has to follow the live object — and must
// never panic on the duplicate name.
func TestFuncReRegistrationLatestWins(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.Func("xp_live", "", "gauge", func() float64 { return v })
	r.Func("xp_live", "", "gauge", func() float64 { return v * 10 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "xp_live 10") {
		t.Errorf("re-registered func metric reads the stale closure:\n%s", sb.String())
	}
	// Kind mismatch on a func metric is still a programming error.
	defer func() {
		if recover() == nil {
			t.Error("re-registering xp_live as a counter func did not panic")
		}
	}()
	r.Func("xp_live", "", "counter", func() float64 { return 0 })
}
