// End-to-end tests against real artifacts: build xpscalar and xptrace,
// run a tiny traced exploration, and verify the analysis contract —
// report digests the trace, diff finds zero drift between identical runs
// (and drift between different ones, exit 2), export produces loadable
// Chrome JSON, and tracing never perturbs the run's stdout.

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
func explore(t *testing.T, bin, trace, spans string, seed string, extra ...string) []byte {
	t.Helper()
	args := []string{"-workload", "gzip", "-iterations", "30", "-chains", "2",
		"-short", "2000", "-long", "4000", "-seed", seed}
	args = append(args, extra...)
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	if spans != "" {
		args = append(args, "-spans", spans)
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
	spansA := filepath.Join(dir, "a.spans")

	outTraced := explore(t, xpscalarBin, traceA, spansA, "42")
	outPlain := explore(t, xpscalarBin, "", "", "42")
	explore(t, xpscalarBin, traceB, "", "42")
	explore(t, xpscalarBin, traceC, "", "7")
	traceCPI := filepath.Join(dir, "cpi.jsonl")
	intervalsFile := filepath.Join(dir, "a.intervals")
	outCPI := explore(t, xpscalarBin, traceCPI, "", "42",
		"-cpi", "-intervals", intervalsFile, "-interval-size", "500")

	// Introspection observes the kernel, never steers it: stdout (Table 4)
	// is byte-identical with cycle accounting and interval sampling armed.
	if !bytes.Equal(outTraced, outCPI) {
		t.Errorf("stdout differs with -cpi/-intervals:\n--- plain\n%s--- introspected\n%s", outTraced, outCPI)
	}

	// Tracing must not perturb the run: stdout (the Table 4 analogue) is
	// byte-identical with and without -trace/-spans.
	if !bytes.Equal(outTraced, outPlain) {
		t.Errorf("stdout differs with tracing enabled:\n--- traced\n%s--- plain\n%s", outTraced, outPlain)
	}

	t.Run("report", func(t *testing.T) {
		cmd := exec.Command(xptraceBin, "report", "-spans", spansA, traceA)
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
			cmd := exec.Command(xptraceBin, "intervals", intervalsFile)
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
		cmd := exec.Command(xptraceBin, "export", "-o", chrome, spansA)
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

	t.Run("diff-rejects-spans-file", func(t *testing.T) {
		cmd := exec.Command(xptraceBin, "diff", spansA, traceA)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("diff on a span stream: err=%v\n%s", err, out)
		}
	})
}
