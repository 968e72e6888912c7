package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"xpscalar/internal/evalengine"
)

// tinySize runs every workload's code path in well under a second.
var tinySize = size{
	profiles: 4, iterations: 8, short: 1000, long: 2000,
	matrixInstr: 4000, coldSetups: 1, warmSetups: 1,
}

func tinyConfig(t *testing.T, workload string, seed int64, traced bool) runConfig {
	return runConfig{workload: workload, seed: seed, traced: traced, size: tinySize, dir: t.TempDir()}
}

func tinyRun(t *testing.T, cfg runConfig) result {
	t.Helper()
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	return res
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, valid)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		key  string
		json []def
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.defs {
			want = append(want, def{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(c.json, want) {
			t.Errorf("BENCHMARK.json %s differs from the metrics the benchmark reports:\n got %v\nwant %v", c.key, c.json, want)
		}
	}
}

func TestSeedChangesInputsAndDigest(t *testing.T) {
	a, err := makeInputs(1, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(2, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.configs, b.configs) {
		t.Error("seeds 1 and 2 generated the same matrix configurations")
	}
	if a.opt.Seed == b.opt.Seed {
		t.Error("seeds 1 and 2 generated the same exploration seed")
	}
	for _, w := range []string{exploreCold, matrixCold} {
		one := tinyRun(t, tinyConfig(t, w, 1, false)).digest
		again := tinyRun(t, tinyConfig(t, w, 1, false)).digest
		two := tinyRun(t, tinyConfig(t, w, 2, false)).digest
		if one != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", w, one, again)
		}
		if one == two {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w, one)
		}
	}
}

func TestTinyRunsPassCheck(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, tinyConfig(t, w, 3, traced))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if traced && isWarm(w) && res.Metrics["evalengine.sims"].Value != 0 {
				t.Errorf("%s: %v simulations on a warm tier", w, res.Metrics["evalengine.sims"].Value)
			}
		}
	}
}

func TestCorruptedDigestFails(t *testing.T) {
	for _, w := range []string{exploreCold, matrixCold, exploreWarmDisk} {
		cfg := tinyConfig(t, w, 4, false)
		cfg.expect = tinyRun(t, cfg).digest
		if res := tinyRun(t, cfg); !res.Correct {
			t.Fatalf("%s: run fails against its own digest", w)
		}
		cfg.expect = "0" + cfg.expect[1:]
		if cfg.expect[0] == cfg.expect[1] {
			cfg.expect = "1" + cfg.expect[1:]
		}
		res := tinyRun(t, cfg)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: corrupted expected digest gave correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestTierDecoratorKeepsPaths checks that timing the cache tier changes
// nothing the engine does: the decorated pass gives the undecorated pass's
// digest and counts. Memory hits and in-flight joins are compared as a sum,
// since which of the two a repeated request becomes depends on goroutine
// timing.
func TestTierDecoratorKeepsPaths(t *testing.T) {
	ctx := context.Background()
	for _, w := range []string{exploreWarmDisk, exploreWarmRemote} {
		b := &bench{cfg: tinyConfig(t, w, 5, false)}
		if err := b.setUp(ctx); err != nil {
			t.Fatal(err)
		}
		var digests []string
		var stats []evalengine.Stats
		for _, timed := range []bool{false, true} {
			out, err := b.pass(ctx, passMode{timeTier: timed})
			if err != nil {
				t.Fatal(err)
			}
			st := out.sess.Stats()
			if err := out.sess.Close(); err != nil {
				t.Fatal(err)
			}
			// Cross-seeding reads each row's donors in one batch, so the
			// decorator must have been asked for batches as well as keys.
			if timed && (out.tier == nil || len(out.tier.snapshot().gets) == 0 || len(out.tier.snapshot().batches) == 0) {
				t.Errorf("%s: decorator did not see both single and batched tier reads", w)
			}
			digests = append(digests, out.digest)
			stats = append(stats, st)
		}
		if err := b.release(); err != nil {
			t.Fatal(err)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s undecorated, %s decorated", w, digests[0], digests[1])
		}
		u, d := stats[0], stats[1]
		if u.Requests != d.Requests || u.DiskHits != d.DiskHits || u.Misses != d.Misses ||
			u.Hits+u.Deduped != d.Hits+d.Deduped || u.Disk != d.Disk {
			t.Errorf("%s: stats differ:\nundecorated %+v\n  decorated %+v", w, u, d)
		}
		if u.DiskHits == 0 || u.Misses != 0 {
			t.Errorf("%s: warm pass served %d tier hits and ran %d simulations", w, u.DiskHits, u.Misses)
		}
	}
}
