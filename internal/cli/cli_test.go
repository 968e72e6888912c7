package cli

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xpscalar/internal/core"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/explore"
	"xpscalar/internal/paperdata"
	"xpscalar/internal/session"
	"xpscalar/internal/store"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

func TestPaperMatrixMatchesTable5(t *testing.T) {
	m, err := PaperMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != len(paperdata.Benchmarks) {
		t.Fatalf("matrix size %d", m.N())
	}
	if m.IPT[0][0] != 3.15 {
		t.Errorf("bzip diagonal %v, want 3.15", m.IPT[0][0])
	}
}

// ReadMatrix serves the analysis tools' two sources and refuses the
// simulating ones, pointing at crossconf, which makes a matrix.
func TestReadMatrixSources(t *testing.T) {
	paper, err := ReadMatrix("paper")
	if err != nil {
		t.Fatalf("paper source: %v", err)
	}

	// file: a matrix saved by crossconf -savematrix round-trips.
	matrixPath := filepath.Join(t.TempDir(), "matrix.json")
	if err := store.SaveMatrix(matrixPath, paper); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMatrix("file:" + matrixPath)
	if err != nil {
		t.Fatalf("file source: %v", err)
	}
	if !reflect.DeepEqual(m, paper) {
		t.Errorf("file source read %+v, want the saved %+v", m, paper)
	}

	for _, source := range []string{"nosuch", "sim", "outcomes:" + matrixPath} {
		_, err := ReadMatrix(source)
		if err == nil {
			t.Fatalf("ReadMatrix accepted source %q", source)
		}
		for _, want := range []string{"paper", "file:", "crossconf -source sim|outcomes:<path> -savematrix <path>"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("source %q: error %q does not name %s", source, err, want)
			}
		}
	}
}

// LoadMatrix is crossconf's: all four sources, two of them simulating on
// the session it is given.
func TestLoadMatrixSources(t *testing.T) {
	ctx := context.Background()
	sess := session.New(session.Options{})
	defer sess.Close()
	o := MatrixOptions{Instructions: 2000, Session: sess}
	_, err := LoadMatrix(ctx, "nosuch", o)
	if err == nil {
		t.Fatal("accepted unknown source")
	}
	for _, form := range []string{"paper", "sim", "file:", "outcomes:"} {
		if !strings.Contains(err.Error(), form) {
			t.Errorf("unknown-source error %q does not name %s", err, form)
		}
	}

	// paper and file: are ReadMatrix's.
	paper, err := LoadMatrix(ctx, "paper", o)
	if err != nil {
		t.Fatalf("paper source: %v", err)
	}
	dir := t.TempDir()
	matrixPath := filepath.Join(dir, "matrix.json")
	if err := store.SaveMatrix(matrixPath, paper); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatrix(ctx, "file:"+matrixPath, o)
	if err != nil {
		t.Fatalf("file source: %v", err)
	}
	if !reflect.DeepEqual(m, paper) {
		t.Errorf("file source read %+v, want the saved %+v", m, paper)
	}

	// outcomes: one saved outcome per suite workload, in suite order, is
	// cross-simulated into the full matrix; any other set is rejected.
	profiles := workload.Suite()
	configs := explore.RandomConfigs(len(profiles), 1, tech.Default())
	if len(configs) != len(profiles) {
		t.Fatalf("%d random configurations for %d workloads", len(configs), len(profiles))
	}
	outs := make([]explore.Outcome, len(profiles))
	for i, p := range profiles {
		outs[i] = explore.Outcome{Workload: p.Name, Best: configs[i]}
	}
	save := func(name string, outs []explore.Outcome) string {
		path := filepath.Join(dir, name+".json")
		if err := store.SaveOutcomes(path, outs); err != nil {
			t.Fatal(err)
		}
		return "outcomes:" + path
	}
	swapped := append([]explore.Outcome(nil), outs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for name, bad := range map[string][]explore.Outcome{
		"too-short":    outs[:len(outs)-1],
		"out-of-order": swapped,
	} {
		if _, err := LoadMatrix(ctx, save(name, bad), o); err == nil {
			t.Errorf("outcomes source accepted a %s outcome set", name)
		}
	}
	m, err = LoadMatrix(ctx, save("suite", outs), o)
	if err != nil {
		t.Fatalf("outcomes source: %v", err)
	}
	if m.N() != len(profiles) || len(m.IPT) != len(profiles) {
		t.Fatalf("outcomes source built a %d-name, %d-row matrix, want %d×%d", m.N(), len(m.IPT), len(profiles), len(profiles))
	}
	for i, row := range m.IPT {
		if m.Names[i] != profiles[i].Name || len(row) != len(profiles) {
			t.Errorf("row %d: %s with %d cells, want %s with %d", i, m.Names[i], len(row), profiles[i].Name, len(profiles))
		}
		for j, ipt := range row {
			if ipt <= 0 {
				t.Errorf("cell (%d, %d) IPT %v, want a simulated value", i, j, ipt)
			}
		}
	}
}

// Without -cache-dir, Open returns an untyped nil: a nil store inside the
// interface would read as a configured tier. With it, the backend is the
// disk store itself, which xpserved's readiness probe type-asserts.
func TestCacheConfigOpen(t *testing.T) {
	be, err := (&CacheConfig{}).Open()
	if err != nil || be != nil {
		t.Fatalf("no -cache-dir: Open = %v (%T), %v; want an untyped nil", be, be, err)
	}
	be, err = (&CacheConfig{Dir: t.TempDir()}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, ok := be.(*evalstore.Store); !ok {
		t.Fatalf("-cache-dir: Open = %T, want *evalstore.Store", be)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]core.Policy{
		"none":    core.PolicyNoPropagation,
		"forward": core.PolicyForwardPropagation,
		"full":    core.PolicyFullPropagation,
	}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("accepted bogus policy")
	}
}

func TestPaperTable4Configs(t *testing.T) {
	cfgs := PaperTable4Configs()
	if len(cfgs) != 11 {
		t.Fatalf("%d configs", len(cfgs))
	}
	for i, nc := range cfgs {
		if nc.Name != paperdata.Benchmarks[i] {
			t.Errorf("config %d named %s", i, nc.Name)
		}
		if len(nc.Config.Vector()) == 0 {
			t.Errorf("%s has empty vector", nc.Name)
		}
		if nc.Config.ClockNs != paperdata.Table4[i].ClockNs {
			t.Errorf("%s clock mismatch", nc.Name)
		}
		if nc.Config.L1D.SizeBytes() != paperdata.Table4[i].L1DBytes() {
			t.Errorf("%s L1 size mismatch", nc.Name)
		}
	}
}
