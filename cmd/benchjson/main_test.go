package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkAnnealChainKernel-2   	      20	  54900342 ns/op	   1830011 ns/sim	41089120 B/op	     616 allocs/op")
	if !ok {
		t.Fatal("rejected a result line")
	}
	if b.Name != "BenchmarkAnnealChainKernel" {
		t.Errorf("name %q, want the GOMAXPROCS suffix stripped", b.Name)
	}
	want := map[string]float64{"ns/op": 54900342, "ns/sim": 1830011, "B/op": 41089120, "allocs/op": 616}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("%s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
	if b, ok := parseLine("BenchmarkRunnerSteadyState 1 3381879 ns/op 169.1 ns/instr"); !ok || b.Name != "BenchmarkRunnerSteadyState" || b.Metrics["ns/instr"] != 169.1 {
		t.Errorf("line without a suffix: %+v, %v", b, ok)
	}
	for _, line := range []string{
		"",
		"PASS",
		"goos: linux",
		"ok  	xpscalar/internal/sim	1.234s",
		"BenchmarkRunnerSteadyState-2",
		"BenchmarkRunnerSteadyState-2 --- FAIL: miss on a stored record",
		"BenchmarkRunnerSteadyState-2 twenty 3381879 ns/op",
		"BenchmarkRunnerSteadyState-2 20 fast ns/op",
		"    sim_test.go:42: BenchmarkRunnerSteadyState 20 3381879 ns/op",
	} {
		if b, ok := parseLine(line); ok {
			t.Errorf("accepted %q as %+v", line, b)
		}
	}
}

func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns}}
}

func TestKeepFastest(t *testing.T) {
	var best []Benchmark
	best = keepFastest(best, []Benchmark{bench("BenchmarkA", 100), bench("BenchmarkB", 50)})
	slowA := bench("BenchmarkA", 120)
	slowA.Metrics["allocs/op"] = 7
	fastB := bench("BenchmarkB", 40)
	fastB.Metrics["allocs/op"] = 3
	best = keepFastest(best, []Benchmark{slowA, fastB, bench("BenchmarkC", 9)})
	if len(best) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(best), best)
	}
	want := []struct {
		name   string
		ns     float64
		allocs float64
	}{{"BenchmarkA", 100, 0}, {"BenchmarkB", 40, 3}, {"BenchmarkC", 9, 0}}
	for i, w := range want {
		b := best[i]
		if b.Name != w.name || b.Metrics["ns/op"] != w.ns || b.Metrics["allocs/op"] != w.allocs {
			t.Errorf("best[%d] = %+v, want %s at %v ns/op with the %v allocs/op of that run", i, b, w.name, w.ns, w.allocs)
		}
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change []Benchmark
		pass         bool
		report       string
	}{
		{"within bound", []Benchmark{bench("BenchmarkA", 100)}, []Benchmark{bench("BenchmarkA", 114)}, true, "+14.0%"},
		{"faster", []Benchmark{bench("BenchmarkA", 100)}, []Benchmark{bench("BenchmarkA", 50)}, true, "-50.0%"},
		{"past bound", []Benchmark{bench("BenchmarkA", 100)}, []Benchmark{bench("BenchmarkA", 116)}, false, "REGRESSION (bound +15%)"},
		{"remote hit within its wider bound", []Benchmark{bench("BenchmarkEvalRemoteHit", 100)}, []Benchmark{bench("BenchmarkEvalRemoteHit", 139)}, true, "+39.0%"},
		{"remote hit past its wider bound", []Benchmark{bench("BenchmarkEvalRemoteHit", 100)}, []Benchmark{bench("BenchmarkEvalRemoteHit", 141)}, false, "REGRESSION (bound +40%)"},
		{"only in change", []Benchmark{bench("BenchmarkA", 100)}, []Benchmark{bench("BenchmarkA", 100), bench("BenchmarkNew", 1e9)}, true, "only in change"},
		{"only in base", []Benchmark{bench("BenchmarkA", 100), bench("BenchmarkOld", 1)}, []Benchmark{bench("BenchmarkA", 100)}, true, "only in base"},
		{"package only in change", nil, []Benchmark{bench("BenchmarkA", 1e9), bench("BenchmarkB", 1e9)}, true, "only in change"},
		{"one regression fails the whole gate", []Benchmark{bench("BenchmarkA", 100), bench("BenchmarkB", 100)}, []Benchmark{bench("BenchmarkA", 90), bench("BenchmarkB", 200)}, false, "+100.0%"},
	} {
		var out bytes.Buffer
		if got := compare(&out, tc.base, tc.change); got != tc.pass {
			t.Errorf("%s: pass %v, want %v\n%s", tc.name, got, tc.pass, out.String())
		}
		if !strings.Contains(out.String(), tc.report) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.report, out.String())
		}
	}
}
