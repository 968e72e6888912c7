// End-to-end test of the real binaries: crossconf makes a
// cross-configuration matrix, and the four analysis tools (combos,
// surrogate, xpviz, mtsim) read one. They take -source paper or
// file:<path> only, refuse the simulating sources with a pointer to
// crossconf, and register none of the simulation flags.

package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalysisToolsReadCrossconfMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, ".", "../combos", "../surrogate", "../xpviz", "../mtsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(tool string, args ...string) (stdout, stderr string, code int) {
		t.Helper()
		var o, e bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s %v: %v", tool, args, err)
			}
			code = ee.ExitCode()
		}
		return o.String(), e.String(), code
	}

	dir := t.TempDir()
	simMatrix := filepath.Join(dir, "sim.json")
	paperMatrix := filepath.Join(dir, "paper.json")
	for _, args := range [][]string{
		{"-source", "sim", "-n", "2000", "-iterations", "5", "-savematrix", simMatrix},
		{"-source", "paper", "-savematrix", paperMatrix},
	} {
		if _, stderr, code := run("crossconf", args...); code != 0 {
			t.Fatalf("crossconf %v: exit %d\n%s", args, code, stderr)
		}
	}

	const hint = "crossconf -source sim|outcomes:<path> -savematrix <path>"
	for _, tool := range []string{"combos", "surrogate", "xpviz", "mtsim"} {
		if _, stderr, code := run(tool, "-source", "file:"+simMatrix); code != 0 {
			t.Errorf("%s -source file: on crossconf's simulated matrix: exit %d\n%s", tool, code, stderr)
		}
		paper, _, _ := run(tool, "-source", "paper")
		file, _, _ := run(tool, "-source", "file:"+paperMatrix)
		if paper == "" || paper != file {
			t.Errorf("%s: -source paper printed\n%s\nbut the file: copy of the paper matrix printed\n%s", tool, paper, file)
		}
		for _, source := range []string{"sim", "outcomes:" + filepath.Join(dir, "x.json")} {
			if _, stderr, code := run(tool, "-source", source); code != 1 || !strings.Contains(stderr, hint) {
				t.Errorf("%s -source %s: exit %d, want 1 with an error naming %q\n%s", tool, source, code, hint, stderr)
			}
		}
		if _, stderr, code := run(tool, "-trace", filepath.Join(dir, "t.jsonl")); code != 2 || !strings.Contains(stderr, "not defined: -trace") {
			t.Errorf("%s -trace: exit %d, want 2 for an unknown flag\n%s", tool, code, stderr)
		}
	}
}
