package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get fetches path from srv, returning the status, Content-Type and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// The handler serves the registry as non-empty Prometheus text and
// parseable JSON, and 404s paths it does not mount.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Func("xp_requests_total", "requests", "counter", func() float64 { return 3 })
	r.Histogram("xp_latency_seconds", "", []float64{0.1, 1}).Observe(0.5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	_, ct, body := get(t, srv, "/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "xp_requests_total 3") {
		t.Errorf("/metrics missing counter sample:\n%s", text)
	}
	if !strings.Contains(text, `xp_latency_seconds_bucket{le="1"} 1`) {
		t.Errorf("/metrics missing histogram bucket:\n%s", text)
	}

	_, _, body = get(t, srv, "/metrics.json")
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if got, ok := decoded["xp_requests_total"].(float64); !ok || got != 3 {
		t.Errorf("/metrics.json xp_requests_total = %v", decoded["xp_requests_total"])
	}

	if code, _, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", code)
	}
}

// The operational endpoints: /healthz answers ok, /buildinfo identifies
// the build, and the pprof index is mounted on the custom mux.
func TestOperationalEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewRegistry().Handler())
	defer srv.Close()

	if code, _, body := get(t, srv, "/healthz"); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	_, _, body := get(t, srv, "/buildinfo")
	var bi map[string]string
	if err := json.Unmarshal(body, &bi); err != nil {
		t.Fatal(err)
	}
	if bi["go_version"] == "" {
		t.Errorf("/buildinfo missing go_version: %v", bi)
	}

	if code, _, body := get(t, srv, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body lacks profile index", code)
	}
}
