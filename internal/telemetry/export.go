// Exporters: Prometheus text format (the scrape wire format) and
// expvar-style JSON (one object, metric name to value), both rendered from
// a point-in-time walk over the registry. Metric names are emitted in
// sorted order so output is deterministic and testable against goldens.

package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE comments, then samples;
// histograms expand into cumulative _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := r.names()
	for _, name := range names {
		m := r.metrics[name]
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.fn != nil:
			fmt.Fprintf(bw, "%s %s\n", m.name, formatFloat(m.fn()))
		case m.histogram != nil:
			h := m.histogram
			var cum uint64
			for i, c := range h.BucketCounts() {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatFloat(h.bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.name, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", m.name, h.Count())
		}
	}
	r.mu.RUnlock()
	return bw.Flush()
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"` // upper bound -> cumulative count
}

// WriteJSON renders every registered metric as one JSON object keyed by
// metric name — the expvar-style view for ad-hoc inspection and scripts.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	r.mu.RLock()
	for name, m := range r.metrics {
		switch {
		case m.fn != nil:
			out[name] = m.fn()
		case m.histogram != nil:
			h := m.histogram
			hj := histogramJSON{Count: h.Count(), Sum: h.Sum(), Buckets: make(map[string]uint64)}
			var cum uint64
			for i, c := range h.BucketCounts() {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatFloat(h.bounds[i])
				}
				hj.Buckets[le] = cum
			}
			out[name] = hj
		}
	}
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
