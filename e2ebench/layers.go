package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs: what a user reproducing the
// tables waits for and pays. Peak resident memory is a per-layer metric
// instead: it follows the garbage collector's pacing under the kernel's
// cache-array churn and moves by a sixth or more between seeds, wider than
// any bound an end-to-end metric may carry.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of traced runs. LAYERS.md gives the source of
// each and the end-to-end metric it should move, on which workload. A
// share is of the summed span self time of the traced passes; counts and
// times from spans or the tier decorator are per traced pass.
var perLayer = []metricDef{
	{"workload.source_self_share", "fraction", "lower"},
	{"workload.gen_ns_per_instr", "ns", "lower"},
	{"sim.simulate_self_share", "fraction", "lower"},
	{"sim.ns_per_instr", "ns", "lower"},
	{"sim.instr_simulated", "count", "lower"},
	{"run_ns_per_instr", "ns", "lower"},
	{"evalengine.requests", "count", "lower"},
	{"evalengine.sims", "count", "lower"},
	{"evalengine.mem_hits", "count", "higher"},
	{"evalengine.dedup", "count", "higher"},
	{"evalengine.tier_hits", "count", "higher"},
	{"evalengine.saved_frac", "fraction", "higher"},
	{"evalengine.lanes_per_group", "count", "higher"},
	{"evalengine.self_share", "fraction", "lower"},
	{"evalengine.dedup_wait_s", "s", "lower"},
	{"evalstore.gets", "count", "lower"},
	{"evalstore.get_p50_us", "us", "lower"},
	{"evalstore.get_p99_us", "us", "lower"},
	{"evalstore.batch_get_p50_us", "us", "lower"},
	{"evalstore.disk_self_share", "fraction", "lower"},
	{"evalstore.puts", "count", "lower"},
	{"evalstore.put_p50_us", "us", "lower"},
	{"evalstore.flush_s", "s", "lower"},
	{"evalstore.bytes_per_record", "bytes", "lower"},
	{"evalstore.errors", "count", "lower"},
	{"evalremote.gets", "count", "lower"},
	{"evalremote.get_p50_us", "us", "lower"},
	{"evalremote.get_p99_us", "us", "lower"},
	{"evalremote.batch_get_p50_us", "us", "lower"},
	{"evalremote.get_self_share", "fraction", "lower"},
	{"evalremote.errors", "count", "lower"},
	{"explore.steps", "count", "lower"},
	{"explore.step_self_share", "fraction", "lower"},
	{"explore.step_self_us", "us", "lower"},
	{"explore.workload_p50_s", "s", "lower"},
	{"explore.workload_max_s", "s", "lower"},
	{"core.row_p50_ms", "ms", "lower"},
	{"core.row_max_ms", "ms", "lower"},
	{"core.analysis_ms", "ms", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
	{"tracing.overhead_frac", "fraction", "lower"},
}

// spanAcc folds the spans of the traced passes.
type spanAcc struct {
	passes    int
	byKind    map[string]tracing.KindStat
	selfSum   int64
	instr     int64     // simulate span args: instructions simulated, summed over lanes
	workloads []float64 // explore span durations, s
	rows      []float64 // cell span durations, ms
}

func (a *spanAcc) add(spans []tracing.Span) {
	if a.byKind == nil {
		a.byKind = map[string]tracing.KindStat{}
	}
	a.passes++
	for _, st := range tracing.Aggregate(spans) {
		acc := a.byKind[st.Kind]
		acc.Kind = st.Kind
		acc.Count += st.Count
		acc.TotalNs += st.TotalNs
		acc.SelfNs += st.SelfNs
		acc.MaxNs = max(acc.MaxNs, st.MaxNs)
		a.byKind[st.Kind] = acc
		a.selfSum += st.SelfNs
	}
	for _, s := range spans {
		switch s.Kind {
		case tracing.KindSimulate:
			a.instr += s.Arg
		case tracing.KindWorkload:
			a.workloads = append(a.workloads, float64(s.DurNs())/1e9)
		case tracing.KindCell:
			a.rows = append(a.rows, float64(s.DurNs())/1e6)
		}
	}
}

// share is the kinds' summed self time over all self time.
func (a *spanAcc) share(kinds ...string) float64 {
	if a.selfSum == 0 {
		return 0
	}
	var self int64
	for _, k := range kinds {
		self += a.byKind[k].SelfNs
	}
	return float64(self) / float64(a.selfSum)
}

// perPass spreads a total over the traced passes.
func (a *spanAcc) perPass(v float64) float64 {
	if a.passes == 0 {
		return 0
	}
	return v / float64(a.passes)
}

// writeShares prints the self-time share of every span kind, largest
// first: the breakdown the per-layer shares are read from.
func (a *spanAcc) writeShares(w io.Writer) {
	kinds := make([]tracing.KindStat, 0, len(a.byKind))
	for _, st := range a.byKind {
		kinds = append(kinds, st)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].SelfNs > kinds[j].SelfNs })
	for _, st := range kinds {
		fmt.Fprintf(w, "span %-13s count %8d self share %.4f\n", st.Kind, st.Count, a.share(st.Kind))
	}
}

func (t *tierTimes) merge(o tierTimes) {
	t.keys += o.keys
	t.gets = append(t.gets, o.gets...)
	t.batches = append(t.batches, o.batches...)
	t.puts = append(t.puts, o.puts...)
	t.flushes = append(t.flushes, o.flushes...)
}

// us is the q-quantile of ds in microseconds.
func us(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return quantile(xs, q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	plain, traced samples
	spans         spanAcc
	tiers         tierTimes // tier decorator of the traced passes
	last          evalengine.Stats
	genNsPerInstr float64
}

// layerMetrics computes every perLayer metric; a layer the workload does
// not reach reads 0.
func (b *bench) layerMetrics(li layerInputs) map[string]float64 {
	sp := &li.spans
	st := li.last
	instr := sp.perPass(float64(sp.instr))
	steps := sp.byKind[tracing.KindStep]
	m := map[string]float64{
		"workload.source_self_share": sp.share(tracing.KindSource),
		"workload.gen_ns_per_instr":  li.genNsPerInstr,
		"sim.simulate_self_share":    sp.share(tracing.KindSimulate),
		"sim.ns_per_instr":           ratio(sp.perPass(float64(sp.byKind[tracing.KindSimulate].SelfNs)), instr),
		"sim.instr_simulated":        instr,
		"run_ns_per_instr":           ratio(median(li.plain.cpu)*1e9, instr),
		"evalengine.requests":        float64(st.Requests),
		"evalengine.sims":            float64(st.Misses),
		"evalengine.mem_hits":        float64(st.Hits),
		"evalengine.dedup":           float64(st.Deduped),
		"evalengine.tier_hits":       float64(st.DiskHits),
		"evalengine.saved_frac":      ratio(float64(st.Saved()), float64(st.Requests)),
		"evalengine.lanes_per_group": ratio(float64(st.LockstepLanes), float64(st.LockstepGroups)),
		"evalengine.self_share": sp.share(tracing.KindEvalHit, tracing.KindEvalMiss,
			tracing.KindEvalDedup, tracing.KindEvalBatch),
		"evalengine.dedup_wait_s":   sp.perPass(float64(sp.byKind[tracing.KindEvalDedup].TotalNs)) / 1e9,
		"evalstore.disk_self_share": sp.share(tracing.KindEvalDisk),
		"evalremote.get_self_share": sp.share(tracing.KindRemoteGet, tracing.KindRemoteLookup),
		"explore.steps":             sp.perPass(float64(steps.Count)),
		"explore.step_self_share":   sp.share(tracing.KindStep),
		"explore.step_self_us":      ratio(float64(steps.SelfNs)/1e3, float64(steps.Count)),
		"explore.workload_p50_s":    median(sp.workloads),
		"explore.workload_max_s":    quantile(sp.workloads, 1),
		"core.row_p50_ms":           median(sp.rows),
		"core.row_max_ms":           quantile(sp.rows, 1),
		"core.analysis_ms":          median(li.plain.analysis),
		"go.gc_cpu_frac":            median(li.plain.gcFrac),
		"go.peak_rss_mb":            median(li.plain.rss),
		"tracing.overhead_frac":     ratio(median(li.traced.wall), median(li.plain.wall)) - 1,
	}
	switch b.cfg.workload {
	case exploreWarmDisk:
		t := li.tiers
		m["evalstore.gets"] = sp.perPass(float64(t.keys))
		m["evalstore.get_p50_us"] = us(t.gets, 0.5)
		m["evalstore.get_p99_us"] = us(t.gets, 0.99)
		m["evalstore.batch_get_p50_us"] = us(t.batches, 0.5)
		m["evalstore.puts"] = float64(len(b.setupTier.puts))
		m["evalstore.put_p50_us"] = us(b.setupTier.puts, 0.5)
		m["evalstore.flush_s"] = us(b.setupTier.flushes, 0.5) / 1e6
		m["evalstore.bytes_per_record"] = ratio(float64(st.Disk.Bytes), float64(st.Disk.Entries))
		m["evalstore.errors"] = float64(b.setupStats.Disk.WriteErrors + b.setupStats.Disk.Quarantined +
			st.Disk.WriteErrors + st.Disk.Quarantined)
	case exploreWarmRemote:
		t := li.tiers
		m["evalremote.gets"] = sp.perPass(float64(t.keys))
		m["evalremote.get_p50_us"] = us(t.gets, 0.5)
		m["evalremote.get_p99_us"] = us(t.gets, 0.99)
		m["evalremote.batch_get_p50_us"] = us(t.batches, 0.5)
		m["evalremote.errors"] = float64(st.Disk.RemoteErrors)
	}
	return m
}

// genBudget is the largest instruction budget the workload simulates.
func (b *bench) genBudget() int {
	if b.cfg.workload == matrixCold {
		return b.cfg.size.matrixInstr
	}
	return b.cfg.size.long
}

// generatorNsPerInstr times workload.NewGenerator plus NextBatch directly,
// over every profile at the given budget: the median of five rounds, in ns
// per generated instruction.
func generatorNsPerInstr(profiles []workload.Profile, budget int) (float64, error) {
	buf := make([]workload.Instr, 4096)
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for _, p := range profiles {
			g, err := workload.NewGenerator(p)
			if err != nil {
				return 0, err
			}
			for left := budget; left > 0; {
				n := g.NextBatch(buf[:min(left, len(buf))])
				if n <= 0 {
					return 0, fmt.Errorf("generator %s stopped after %d instructions", p.Name, budget-left)
				}
				left -= n
			}
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(budget*len(profiles)))
	}
	return median(rounds), nil
}
