// End-to-end tests of the real binary. The interruption tests verify the
// contract of the graceful-shutdown path — a distinct exit status, a
// parseable span stream (manifest first, run span with the summary last),
// and a valid saved-outcomes file holding exactly the workloads that
// finished. The cache tests verify that processes sharing a -cache-dir
// share their evaluations without changing a result.

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/evalstore"
	"xpscalar/internal/store"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
)

// buildBinary compiles cmd/xpscalar into a temporary directory once per
// test that needs it.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xpscalar")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestTimeoutExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-timeout", "50ms", "-iterations", "100000", "-chains", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("run did not fail under -timeout: %v\n%s", err, stderr.Bytes())
	}
	if code := ee.ExitCode(); code != 124 {
		t.Fatalf("exit status %d under -timeout, want 124\n%s", code, stderr.Bytes())
	}
}

func TestInterruptGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	savePath := filepath.Join(dir, "outs.json")

	// GOMAXPROCS=2 staggers workload completion: two at a time across the
	// eleven-workload suite, so an interrupt after the first chain span
	// lands mid-suite deterministically — some workloads done, most not.
	cmd := exec.Command(bin,
		"-iterations", "2000", "-chains", "1", "-short", "2000", "-long", "4000",
		"-trace", tracePath, "-save", savePath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until at least one workload's chain has completed (its chain
	// span flushed through the stream's buffer), then interrupt.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no chain completed before the deadline\nstderr: %s", stderr.Bytes())
		}
		data, _ := os.ReadFile(tracePath)
		if bytes.Contains(data, []byte(`"kind":"chain"`)) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run did not report failure: %v\nstderr: %s", err, stderr.Bytes())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("exit status %d after SIGINT, want 130\nstderr: %s", code, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", stderr.Bytes())
	}

	// The trace was flushed on the way out: every line parses, the header
	// (with the manifest) comes first, and the run span (with the engine's
	// counters) comes last.
	meta, spans := readSpanFile(t, tracePath)
	if meta.Manifest == nil || meta.Tool != "xpscalar" {
		t.Fatalf("trace header %+v lacks the manifest", meta)
	}
	if len(spans) < 2 {
		t.Fatalf("trace holds %d spans", len(spans))
	}
	if last := spans[len(spans)-1]; last.Kind != tracing.KindRun || last.Attrs == nil {
		t.Fatalf("trace not properly framed: last span %+v, want the run span with its summary", last)
	}

	// The completed workloads were persisted, and only those: the file is
	// a valid partial artifact.
	outs, lerr := store.LoadOutcomes(savePath, tech.Default())
	if lerr != nil {
		t.Fatalf("saved partial outcomes invalid: %v", lerr)
	}
	if len(outs) < 1 || len(outs) >= 11 {
		t.Fatalf("saved %d outcomes, want a proper partial set (1..10)", len(outs))
	}
	for _, o := range outs {
		if o.Workload == "" || o.BestIPT <= 0 {
			t.Errorf("partial outcome malformed: %+v", o)
		}
	}
}

// TestWarmStartFromCacheDir: two identical runs over one -cache-dir. The
// second process simulates nothing — its trace summary shows zero misses
// and only disk hits — and prints the byte-identical Table 4, proving the
// persistent tier changes cost, never results.
func TestWarmStartFromCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary twice")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	run := func(trace string) string {
		cmd := exec.Command(bin,
			"-workload", "gzip", "-iterations", "3", "-chains", "1",
			"-short", "1000", "-long", "1000",
			"-cache-dir", cacheDir, "-trace", filepath.Join(dir, trace))
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.Bytes())
		}
		return stdout.String()
	}
	summary := func(trace string) *tracing.RunAttrs { return readSummary(t, dir, trace) }

	cold := run("cold.jsonl")
	warm := run("warm.jsonl")
	if cold != warm {
		t.Fatalf("warm-started run printed a different Table 4:\n%s\nvs\n%s", cold, warm)
	}
	cs := summary("cold.jsonl")
	if cs.Misses == 0 || cs.DiskHits != 0 {
		t.Fatalf("cold summary %+v, want simulations and no disk hits", cs)
	}
	ws := summary("warm.jsonl")
	if ws.Misses != 0 {
		t.Fatalf("warm run simulated %d points, want 0 (served from disk): %+v", ws.Misses, ws)
	}
	if ws.DiskHits == 0 {
		t.Fatalf("warm summary %+v, want disk hits", ws)
	}
}

// TestTwoProcessesShareCacheDir: two cold runs with different seeds write
// one -cache-dir at the same time. A warm rerun of either seed then
// simulates nothing and prints that seed's cold Table 4, and the shared
// pack opens with no torn or interleaved entry.
func TestTwoProcessesShareCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary four times")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	seeds := []string{"3", "4"}

	type proc struct {
		cmd            *exec.Cmd
		stdout, stderr bytes.Buffer
	}
	start := func(seed string, extra ...string) *proc {
		p := &proc{}
		args := []string{
			"-workload", "gzip", "-iterations", "3", "-chains", "1",
			"-short", "1000", "-long", "1000", "-seed", seed, "-cache-dir", cacheDir}
		p.cmd = exec.Command(bin, append(args, extra...)...)
		p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	wait := func(procs ...*proc) []string {
		out := make([]string, len(procs))
		for i, p := range procs {
			if err := p.cmd.Wait(); err != nil {
				t.Errorf("%v: %v\nstderr: %s", p.cmd.Args, err, p.stderr.Bytes())
			}
			out[i] = p.stdout.String()
		}
		if t.Failed() {
			t.FailNow()
		}
		return out
	}

	// Both cold writers run at once.
	cold := wait(start(seeds[0]), start(seeds[1]))

	for i, seed := range seeds {
		trace := "warm-" + seed + ".jsonl"
		warm := wait(start(seed, "-trace", filepath.Join(dir, trace)))[0]
		if warm != cold[i] {
			t.Fatalf("seed %s: warm run printed a different Table 4:\n%s\nvs cold\n%s", seed, warm, cold[i])
		}
		if s := readSummary(t, dir, trace); s.Misses != 0 || s.DiskHits == 0 {
			t.Fatalf("seed %s: warm summary %+v, want 0 misses and disk hits", seed, s)
		}
	}

	disk, err := evalstore.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 || st.Entries == 0 {
		t.Fatalf("shared pack: %d entries, %d quarantined; want entries and none quarantined", st.Entries, st.Quarantined)
	}
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
