// End-to-end fleet-cache tests: a real xpserved peer computes the tiny
// Table 4 job, then a separate xpscalar process pointed at it with
// -cache-peers finishes the identical exploration without simulating a
// single point — byte-identical stdout, zero misses, every evaluation
// pulled over HTTP. And the degraded half of the contract: killing the
// peer must cost only the hit rate — same stdout, exit 0 — never a
// failure or a stall.

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"xpscalar/internal/tracing"
)

// buildServer compiles cmd/xpserved into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xpserved")
	cmd := exec.Command("go", "build", "-o", bin, "xpscalar/cmd/xpserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build xpserved: %v\n%s", err, out)
	}
	return bin
}

// startPeerCmd launches xpserved on an ephemeral port with extra flags
// and waits until it serves. The caller owns the process: kill it hard,
// or SIGTERM it when the test needs the graceful path (trace close).
func startPeerCmd(t *testing.T, bin, cacheDir string, extra ...string) (base string, cmd *exec.Cmd) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache-dir", cacheDir, "-max-jobs", "1"}
	args = append(args, extra...)
	cmd = exec.Command(bin, args...)
	stderr := &bytes.Buffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base = "http://" + strings.TrimSpace(string(data))
			if _, err := http.Get(base + "/healthz"); err == nil {
				return base, cmd
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("peer never came up\nstderr: %s", stderr.Bytes())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startPeer launches a plain peer; the returned cleanup kills it hard
// (the graceful path is exercised by the trace-files test).
func startPeer(t *testing.T, bin, cacheDir string) (base string, kill func()) {
	base, cmd := startPeerCmd(t, bin, cacheDir)
	return base, func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// warmPeer submits the canonical tiny explore job — the exact point set
// the xpscalar flags below request — and waits for completion, so the
// peer's memory and disk tiers hold every evaluation.
func warmPeer(t *testing.T, base string) {
	t.Helper()
	req := `{"kind":"explore","workloads":["gzip"],"iterations":3,"chains":1,"short_budget":1000,"long_budget":1000}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch cur.State {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("warm job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm job stuck in %s", cur.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runExplore runs the xpscalar binary with the canonical tiny flags plus
// extras, returning stdout.
func runExplore(t *testing.T, bin, dir, trace string, extra ...string) string {
	t.Helper()
	args := []string{
		"-workload", "gzip", "-iterations", "3", "-chains", "1",
		"-short", "1000", "-long", "1000",
		"-trace", filepath.Join(dir, trace),
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run %v: %v\nstderr: %s", extra, err, stderr.Bytes())
	}
	return stdout.String()
}

// readSummary parses the engine counters the trace's closing run span
// carries.
func readSummary(t *testing.T, dir, trace string) *tracing.RunAttrs {
	t.Helper()
	_, spans := readSpanFile(t, filepath.Join(dir, trace))
	last := spans[len(spans)-1]
	s, ok := last.Attrs.(*tracing.RunAttrs)
	if last.Kind != tracing.KindRun || !ok {
		t.Fatalf("trace %s does not end in the run span", trace)
	}
	return s
}

// TestFleetWarmExploration: warm peer → zero-simulation client run; dead
// peer → local-only run; both byte-identical to the reference.
func TestFleetWarmExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs two real binaries")
	}
	bin := buildBinary(t)
	srvBin := buildServer(t)
	dir := t.TempDir()

	// Reference: a plain local run, no cache tiers at all.
	reference := runExplore(t, bin, dir, "ref.jsonl")
	rs := readSummary(t, dir, "ref.jsonl")
	if rs.Misses == 0 {
		t.Fatalf("reference run simulated nothing: %+v", rs)
	}

	// Warm the peer with the identical point set, then explore against it.
	base, kill := startPeer(t, srvBin, filepath.Join(dir, "peer-cache"))
	defer kill()
	warmPeer(t, base)
	warm := runExplore(t, bin, dir, "fleet.jsonl", "-cache-peers", base)
	if warm != reference {
		t.Fatalf("fleet-warm run printed a different Table 4:\n%s\nvs\n%s", warm, reference)
	}
	ws := readSummary(t, dir, "fleet.jsonl")
	if ws.Misses != 0 {
		t.Fatalf("fleet-warm run simulated %d points, want 0 (pulled from the peer): %+v", ws.Misses, ws)
	}
	if ws.RemoteHits == 0 {
		t.Fatalf("fleet-warm summary %+v, want remote hits", ws)
	}
	if ws.DiskHits < ws.RemoteHits {
		t.Fatalf("summary %+v: remote hits are a subset of backend-tier hits", ws)
	}

	// Kill the peer (hard, mid-fleet): the same run must degrade to
	// local-only — every point simulated again — with identical output and
	// a clean exit.
	kill()
	dead := runExplore(t, bin, dir, "dead.jsonl", "-cache-peers", base)
	if dead != reference {
		t.Fatalf("dead-peer run printed a different Table 4:\n%s\nvs\n%s", dead, reference)
	}
	ds := readSummary(t, dir, "dead.jsonl")
	if ds.Misses != rs.Misses {
		t.Fatalf("dead-peer run simulated %d points, reference %d", ds.Misses, rs.Misses)
	}
	if ds.RemoteHits != 0 {
		t.Fatalf("dead-peer summary %+v reports remote hits", ds)
	}
}

// buildXptrace compiles cmd/xptrace for the diff leg of the trace-files
// test.
func buildXptrace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xptrace")
	cmd := exec.Command("go", "build", "-o", bin, "xpscalar/cmd/xptrace")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build xptrace: %v\n%s", err, out)
	}
	return bin
}

// readSpanFile loads one trace from disk.
func readSpanFile(t *testing.T, path string) (tracing.Meta, []tracing.Span) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, spans, err := tracing.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	return meta, spans
}

// TestFleetTraceFiles: a cold client explores against a warm xpserved
// peer and both write -trace files, each one process's own trace. The
// client's remote-tier spans nest under its evaluation spans and so reach
// its root run span; the peer's serve.* spans are roots of the peer's
// trace, and its file grows while it serves, not only at shutdown. Along
// the way the observability plumbing must stay inert: Table 4 stdout
// byte-identical to the reference, and xptrace diff exit 0.
func TestFleetTraceFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three real binaries")
	}
	bin := buildBinary(t)
	srvBin := buildServer(t)
	xptraceBin := buildXptrace(t)
	dir := t.TempDir()

	// Reference: a plain local run — the byte-identity baseline.
	reference := runExplore(t, bin, dir, "ref.jsonl")

	peerSpans := filepath.Join(dir, "peer.trace")
	base, cmd := startPeerCmd(t, srvBin, filepath.Join(dir, "peer-cache"), "-trace", peerSpans)
	stopped := false
	defer func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	warmPeer(t, base)

	// Cold client against the warm peer.
	traced := runExplore(t, bin, dir, "traced.jsonl", "-cache-peers", base)
	if traced != reference {
		t.Fatalf("the remote tier changed Table 4:\n%s\nvs\n%s", traced, reference)
	}
	ts := readSummary(t, dir, "traced.jsonl")
	if ts.RemoteHits == 0 {
		t.Fatalf("traced run summary %+v, want remote hits (warm peer)", ts)
	}

	// The cache flags must be invisible to drift detection.
	diff := exec.Command(xptraceBin, "diff",
		filepath.Join(dir, "ref.jsonl"), filepath.Join(dir, "traced.jsonl"))
	if out, err := diff.CombinedOutput(); err != nil {
		t.Fatalf("diff flagged a remote-tier run as drift: %v\n%s", err, out)
	}

	// The peer's file is written as it serves: the client's cache requests
	// are already in it while the peer is still up.
	if _, live := readSpanFile(t, peerSpans); len(live) == 0 {
		t.Fatal("peer trace holds no spans while serving")
	}

	// Graceful stop: SIGTERM makes the peer drain and close its trace.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("peer exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("peer hung on SIGTERM")
	}
	stopped = true

	// Every client remote.* span has an eval.* ancestor, and its chain of
	// parents reaches the root run span.
	_, cspans := readSpanFile(t, filepath.Join(dir, "traced.jsonl"))
	clientByID := map[tracing.SpanID]tracing.Span{}
	for _, s := range cspans {
		clientByID[s.ID] = s
	}
	remote := 0
	for _, s := range cspans {
		if s.Kind != tracing.KindRemoteGet && s.Kind != tracing.KindRemoteLookup {
			continue
		}
		remote++
		cur, sawEval := s, false
		for cur.Parent != 0 {
			next, ok := clientByID[cur.Parent]
			if !ok {
				t.Fatalf("client span %d has a dangling parent %d", cur.ID, cur.Parent)
			}
			cur = next
			sawEval = sawEval || strings.HasPrefix(cur.Kind, "eval.")
		}
		if !sawEval || cur.Kind != tracing.KindRun {
			t.Fatalf("client %s span %d: eval ancestor %v, root %q; want an eval.* ancestor and the run root",
				s.Kind, s.ID, sawEval, cur.Kind)
		}
	}
	if remote == 0 {
		t.Fatal("client recorded no remote-tier spans")
	}

	// The peer's stream is its own trace: every serve.* span is a root.
	sm, sspans := readSpanFile(t, peerSpans)
	if sm.Tool != "xpserved" {
		t.Fatalf("peer stream tool %q", sm.Tool)
	}
	serves := 0
	for _, s := range sspans {
		if !strings.HasPrefix(s.Kind, "serve.") {
			continue
		}
		serves++
		if s.Parent != 0 {
			t.Fatalf("peer span %+v: serve spans are roots", s)
		}
	}
	if serves == 0 {
		t.Fatal("peer recorded no serve spans")
	}
}
