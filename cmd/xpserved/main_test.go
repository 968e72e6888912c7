// End-to-end durability test: a real xpserved process computes a job,
// shuts down gracefully, and a second process over the same cache
// directory answers the identical job from disk — byte-identical result,
// zero simulations — proving the persistent tier survives restarts and
// the graceful-shutdown path flushes it. The pack is the server's only
// channel for sharing evaluations: it serves none of them over HTTP.

package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/evalstore"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xpserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// server is one running xpserved process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
}

// startServer launches xpserved on an ephemeral port over cacheDir and
// waits until it serves.
func startServer(t *testing.T, bin, cacheDir string) *server {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache-dir", cacheDir, "-max-jobs", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			s := &server{cmd: cmd, base: "http://" + strings.TrimSpace(string(data)), stderr: &stderr}
			if _, err := http.Get(s.base + "/healthz"); err == nil {
				return s
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("server never came up\nstderr: %s", stderr.Bytes())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop shuts the server down gracefully and checks the exit.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("server exit: %v\nstderr: %s", err, s.stderr.Bytes())
	}
}

// runJob submits the canonical tiny job and waits for its result.
func (s *server) runJob(t *testing.T) json.RawMessage {
	t.Helper()
	req := `{"kind":"explore","workloads":["gzip"],"iterations":3,"chains":1,"short_budget":1000,"long_budget":1000}`
	resp, err := http.Post(s.base+"/v1/jobs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(s.base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch cur.State {
		case "done":
			return cur.Result
		case "failed", "cancelled":
			t.Fatalf("job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// status returns the HTTP status of a GET of path.
func (s *server) status(t *testing.T, path string) int {
	t.Helper()
	resp, err := http.Get(s.base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// metric reads one value from /metrics.json.
func (s *server) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(s.base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	raw, ok := m[name]
	if !ok {
		t.Fatalf("metric %q not exported; have %d metrics", name, len(m))
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("metric %q: %v", name, err)
	}
	return v
}

func TestRestartServedFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real server twice")
	}
	bin := buildBinary(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Cold server: the job simulates and the write-behind tier persists
	// every evaluation.
	s1 := startServer(t, bin, cacheDir)
	first := s1.runJob(t)
	if n := s1.metric(t, "xpscalar_eval_misses_total"); n == 0 {
		t.Fatal("cold run reports zero simulations")
	}
	s1.stop(t) // graceful: flushes the disk tier

	disk, err := evalstore.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	records := disk.Stats().Entries
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("no records on disk after graceful shutdown")
	}

	// Warm server, fresh process and memory tier: the identical job is
	// answered entirely from disk.
	s2 := startServer(t, bin, cacheDir)
	defer s2.stop(t)
	second := s2.runJob(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("restarted result diverged:\n%s\nvs\n%s", first, second)
	}
	if n := s2.metric(t, "xpscalar_eval_misses_total"); n != 0 {
		t.Fatalf("warm run simulated %v points, want 0 (served from disk)", n)
	}
	if n := s2.metric(t, "xpscalar_eval_disk_hits_total"); n == 0 {
		t.Fatal("warm run reports zero disk hits")
	}
	if n := s2.metric(t, "xpscalar_eval_disk_entries"); n != float64(records) {
		t.Fatalf("disk entries gauge %v, want %d records found on disk", n, records)
	}

	// The pack is the one way the server shares evaluations: a key it
	// holds (the pack's first entry opens with its key) is not served
	// over HTTP, while the operator's endpoints answer.
	packs, err := filepath.Glob(filepath.Join(cacheDir, "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("packs in the cache directory: %v (%v), want one", packs, err)
	}
	pack, err := os.ReadFile(packs[0])
	if err != nil || len(pack) < 32 {
		t.Fatalf("pack of %d bytes: %v", len(pack), err)
	}
	if code := s2.status(t, "/v1/cache/"+hex.EncodeToString(pack[:32])); code != http.StatusNotFound {
		t.Fatalf("GET /v1/cache/<held key> answered %d, want 404", code)
	}
	for _, path := range []string{"/metrics", "/readyz"} {
		if code := s2.status(t, path); code != http.StatusOK {
			t.Fatalf("GET %s answered %d, want 200", path, code)
		}
	}
}

// TestReadyzNoticesLostPack: removing the disk tier's pack under a running
// server flips /readyz to 503 — the store would otherwise keep appending
// to a file no later start reads — while /healthz stays green.
func TestReadyzNoticesLostPack(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real server")
	}
	bin := buildBinary(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	s := startServer(t, bin, cacheDir)
	defer s.stop(t)
	if code := s.status(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz %d over an intact pack, want 200", code)
	}
	packs, err := filepath.Glob(filepath.Join(cacheDir, "*.pack"))
	if err != nil || len(packs) != 1 {
		t.Fatalf("packs in the cache directory: %v (%v), want one", packs, err)
	}
	if err := os.Remove(packs[0]); err != nil {
		t.Fatal(err)
	}
	if code := s.status(t, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d with the pack removed, want 503", code)
	}
	if code := s.status(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz %d with the pack removed, want 200", code)
	}
}
