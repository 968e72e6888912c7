// End-to-end tests against real artifacts: build xpscalar and xptrace,
// run a tiny traced exploration, and verify the analysis contract —
// report digests the trace, diff finds zero drift between identical runs
// (and drift between different ones, exit 2), export produces loadable
// Chrome JSON from the same file, and tracing never perturbs the run's
// stdout.

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"xpscalar/internal/tracing"
)

// buildTools compiles xpscalar and xptrace into a shared temp dir.
func buildTools(t *testing.T) (xpscalar, xptrace string) {
	t.Helper()
	dir := t.TempDir()
	xpscalar = filepath.Join(dir, "xpscalar")
	xptrace = filepath.Join(dir, "xptrace")
	for bin, pkg := range map[string]string{xpscalar: "../xpscalar", xptrace: "."} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return xpscalar, xptrace
}

// explore runs one tiny traced exploration and returns its stdout.
func explore(t *testing.T, bin, trace string, seed string, extra ...string) []byte {
	t.Helper()
	args := []string{"-workload", "gzip", "-iterations", "30", "-chains", "2",
		"-short", "2000", "-long", "4000", "-seed", seed}
	args = append(args, extra...)
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("xpscalar: %v\n%s", err, stderr.Bytes())
	}
	return stdout.Bytes()
}

func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	xpscalarBin, xptraceBin := buildTools(t)
	dir := t.TempDir()
	traceA := filepath.Join(dir, "a.jsonl")
	traceB := filepath.Join(dir, "b.jsonl")
	traceC := filepath.Join(dir, "c.jsonl")

	outTraced := explore(t, xpscalarBin, traceA, "42", "-progress")
	outPlain := explore(t, xpscalarBin, "", "42")
	explore(t, xpscalarBin, traceB, "42")
	explore(t, xpscalarBin, traceC, "7")
	traceCPI := filepath.Join(dir, "cpi.jsonl")
	outCPI := explore(t, xpscalarBin, traceCPI, "42", "-cpi", "-intervals", "500")

	// Introspection observes the kernel, never steers it: stdout (Table 4)
	// is byte-identical with cycle accounting and interval sampling armed.
	if !bytes.Equal(outTraced, outCPI) {
		t.Errorf("stdout differs with -cpi/-intervals:\n--- plain\n%s--- introspected\n%s", outTraced, outCPI)
	}

	// Tracing must not perturb the run: stdout (the Table 4 analogue) is
	// byte-identical with and without -trace/-progress.
	if !bytes.Equal(outTraced, outPlain) {
		t.Errorf("stdout differs with tracing enabled:\n--- traced\n%s--- plain\n%s", outTraced, outPlain)
	}

	t.Run("report", func(t *testing.T) {
		cmd := exec.Command(xptraceBin, "report", traceA, traceB)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("report: %v\n%s", err, out)
		}
		for _, want := range []string{
			"Annealing convergence per chain",
			"Acceptance rate over search progress",
			"Cache effectiveness over run time",
			"Run summary",
			"Phase time breakdown",
			"simulate", // the dominant phase must appear in the attribution
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("report missing %q:\n%s", want, out)
			}
		}
		// One breakdown per trace given.
		if n := strings.Count(string(out), "Phase time breakdown"); n != 2 {
			t.Errorf("report printed %d phase breakdowns for two traces:\n%s", n, out)
		}
	})

	t.Run("diff-identical", func(t *testing.T) {
		cmd := exec.Command(xptraceBin, "diff", traceA, traceB)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("diff of identical runs failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "no drift") {
			t.Errorf("identical runs did not report zero drift:\n%s", out)
		}
	})

	t.Run("diff-introspected-identical", func(t *testing.T) {
		// Introspection flags are observability-only; an armed run diffs
		// clean against a plain one — same seed, zero outcome drift.
		cmd := exec.Command(xptraceBin, "diff", traceA, traceCPI)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("diff plain vs introspected failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "no drift") {
			t.Errorf("plain vs introspected runs did not report zero drift:\n%s", out)
		}
	})

	t.Run("cpi", func(t *testing.T) {
		run := func() []byte {
			cmd := exec.Command(xptraceBin, "cpi", traceCPI)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("cpi: %v\n%s", err, out)
			}
			return out
		}
		out := run()
		for _, want := range []string{"CPI stacks", "configurations:", "base", "mispredict", "gzip"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("cpi view missing %q:\n%s", want, out)
			}
		}
		if again := run(); !bytes.Equal(out, again) {
			t.Errorf("cpi view is not deterministic:\n--- first\n%s--- second\n%s", out, again)
		}
		// A trace recorded without -cpi has no stacks to show.
		cmd := exec.Command(xptraceBin, "cpi", traceA)
		plain, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cpi on plain trace: %v\n%s", err, plain)
		}
		if !strings.Contains(string(plain), "no CPI stacks") {
			t.Errorf("cpi on a plain trace should report no stacks:\n%s", plain)
		}
	})

	t.Run("intervals", func(t *testing.T) {
		run := func() []byte {
			cmd := exec.Command(xptraceBin, "intervals", traceCPI)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("intervals: %v\n%s", err, out)
			}
			return out
		}
		out := run()
		for _, want := range []string{"intervals", "seq", "ipc", "dominant", "gzip"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("intervals view missing %q:\n%s", want, out)
			}
		}
		if again := run(); !bytes.Equal(out, again) {
			t.Errorf("intervals view is not deterministic:\n--- first\n%s--- second\n%s", out, again)
		}
		// The JSONL interval dumps of earlier builds are not span streams.
		dump := filepath.Join(dir, "old.intervals")
		if err := os.WriteFile(dump, []byte(`{"workload":"gzip","config":"w=4","lane":0,"seq":0,"instructions":500}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := exec.Command(xptraceBin, "intervals", dump).CombinedOutput()
		if err == nil || !strings.Contains(string(old), "span stream") {
			t.Errorf("intervals accepted an interval dump (err %v):\n%s", err, old)
		}
	})

	t.Run("diff-drift", func(t *testing.T) {
		cmd := exec.Command(xptraceBin, "diff", traceA, traceC)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("diff of different seeds did not fail: %v\n%s", err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Fatalf("diff drift exit = %d, want 2\n%s", code, out)
		}
		if !strings.Contains(string(out), "seed") || !strings.Contains(string(out), "DRIFT") {
			t.Errorf("drift report lacks cause:\n%s", out)
		}
	})

	t.Run("export", func(t *testing.T) {
		chrome := filepath.Join(dir, "a.chrome.json")
		cmd := exec.Command(xptraceBin, "export", "-o", chrome, traceA)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("export: %v\n%s", err, out)
		}
		buf, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("exported trace is not valid JSON: %v", err)
		}
		kinds := map[string]bool{}
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				kinds[strings.SplitN(e.Name, " ", 2)[0]] = true
			}
		}
		for _, want := range []string{tracing.KindRun, tracing.KindChain, tracing.KindStep, tracing.KindSimulate} {
			if !kinds[want] {
				t.Errorf("chrome trace lacks %q spans (have %v)", want, kinds)
			}
		}
	})

	t.Run("diff-rejects-envelope-trace", func(t *testing.T) {
		// A JSONL event trace of the old envelope format is not a span
		// stream: diff fails with an error naming the header it expects.
		old := filepath.Join(dir, "old.jsonl")
		if err := os.WriteFile(old, []byte(`{"event":"manifest","seq":0,"t_ns":1,"data":{"tool":"xpscalar"}}`+"\n"), 0o666); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(xptraceBin, "diff", old, traceA)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("diff on an envelope trace: err=%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "xptrace-spans") {
			t.Errorf("error does not name the expected header:\n%s", out)
		}
	})
}
