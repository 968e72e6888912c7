// The diff subcommand: compare two run traces and report three kinds of
// divergence. Manifest drift is configuration that differed between the
// runs; outcome drift is any search or matrix number that differed —
// the search is deterministic for a given seed, so two runs of the same
// configuration must show none, no matter which observability flags were
// set; the time delta is wall-clock movement, reported but never counted
// as drift (timing is the one thing two runs never share).

package main

import (
	"flag"
	"fmt"
	"sort"
)

// maxShown caps how many drifting entries are printed per category; the
// count is always exact.
const maxShown = 8

// ignoredFlags are observability and output knobs that change what a run
// records, never what it computes. They are excluded from manifest drift
// so a traced run diffs clean against an untraced one. -neighborhood does
// NOT belong here: a wider proposal neighborhood changes the search
// trajectory, so it must surface as drift.
var ignoredFlags = map[string]bool{
	"trace": true, "spans": true, "metrics-addr": true, "progress": true,
	"log-level": true, "log-format": true, "cpuprofile": true, "memprofile": true,
	"evalstats": true, "save": true, "savematrix": true, "out": true,
	// Introspection attributes and samples; it never changes what the
	// kernel computes (Result is bit-identical armed or not), so an armed
	// run must diff clean against a plain one.
	"cpi": true, "intervals": true, "interval-size": true,
	// The persistent cache tiers only ever serve values an engine computed
	// and stored — a warm-cache or fleet-warm run is bit-identical to a
	// cold one, and diffing the two is exactly how that claim is checked.
	"cache-dir": true, "cache-peers": true,
	// Trace-context propagation stamps IDs on spans and headers; it never
	// reaches the simulation, so a propagating run must diff clean against
	// a plain one.
	"trace-id": true,
}

func diffCmd(args []string) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff: want exactly two trace files, got %d args", fs.NArg())
	}
	a, err := loadTrace(fs.Arg(0))
	if err != nil {
		return false, err
	}
	b, err := loadTrace(fs.Arg(1))
	if err != nil {
		return false, err
	}

	drift := diffManifests(a, b)
	drift = diffOutcomes(a, b) || drift
	diffTimes(a, b)
	if drift {
		fmt.Println("\nDRIFT: the runs differ")
	} else {
		fmt.Println("\nno drift: configurations and outcomes are identical")
	}
	return drift, nil
}

// diffManifests compares run configuration, ignoring observability flags.
func diffManifests(a, b *trace) bool {
	fmt.Printf("manifest: %s vs %s\n", a.path, b.path)
	if a.manifest == nil || b.manifest == nil {
		fmt.Println("  a trace lacks its manifest; skipping manifest comparison")
		return false
	}
	ma, mb := a.manifest, b.manifest
	drift := false
	report := func(what, va, vb string) {
		fmt.Printf("  %-12s %s -> %s\n", what, va, vb)
		drift = true
	}
	if ma.Tool != mb.Tool {
		report("tool", ma.Tool, mb.Tool)
	}
	if ma.Seed != mb.Seed {
		report("seed", fmt.Sprint(ma.Seed), fmt.Sprint(mb.Seed))
	}
	if ma.GoVersion != mb.GoVersion {
		report("go", ma.GoVersion, mb.GoVersion)
	}
	keys := map[string]bool{}
	for k := range ma.Flags {
		keys[k] = true
	}
	for k := range mb.Flags {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		if !ignoredFlags[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		va, oka := ma.Flags[k]
		vb, okb := mb.Flags[k]
		if oka != okb || va != vb {
			report("-"+k, orMissing(va, oka), orMissing(vb, okb))
		}
	}
	if !drift {
		fmt.Println("  no configuration drift")
	}
	return drift
}

func orMissing(v string, ok bool) string {
	if !ok {
		return "(absent)"
	}
	return v
}

// diffOutcomes compares every deterministic number the runs produced:
// annealing steps, chain results, and matrix cells. Cache outcomes and
// timing are scheduling-dependent and deliberately not compared.
func diffOutcomes(a, b *trace) bool {
	drift := false

	// Annealing steps: keyed by (workload, chain, iteration).
	sa := map[string]string{}
	for _, s := range a.steps {
		sa[fmt.Sprintf("%s/%d/%d", s.Workload, s.Chain, s.Iteration)] =
			fmt.Sprintf("move=%s score=%.9g cur=%.9g best=%.9g feas=%t acc=%t",
				s.Move, s.Score, s.CurrentScore, s.BestScore, s.Feasible, s.Accepted)
	}
	sb := map[string]string{}
	for _, s := range b.steps {
		sb[fmt.Sprintf("%s/%d/%d", s.Workload, s.Chain, s.Iteration)] =
			fmt.Sprintf("move=%s score=%.9g cur=%.9g best=%.9g feas=%t acc=%t",
				s.Move, s.Score, s.CurrentScore, s.BestScore, s.Feasible, s.Accepted)
	}
	drift = diffMaps("anneal steps", sa, sb) || drift

	// Chain results: keyed by (workload, chain).
	ca := map[string]string{}
	for _, c := range a.chains {
		ca[fmt.Sprintf("%s/%d", c.Workload, c.Chain)] =
			fmt.Sprintf("best=%.9g ipt=%.9g evals=%d", c.BestScore, c.BestIPT, c.Evaluations)
	}
	cb := map[string]string{}
	for _, c := range b.chains {
		cb[fmt.Sprintf("%s/%d", c.Workload, c.Chain)] =
			fmt.Sprintf("best=%.9g ipt=%.9g evals=%d", c.BestScore, c.BestIPT, c.Evaluations)
	}
	drift = diffMaps("chain results", ca, cb) || drift

	// Matrix cells: keyed by (workload, arch, budget).
	xa := map[string]string{}
	for _, c := range a.cells {
		xa[fmt.Sprintf("%s on %s @%d", c.Workload, c.Arch, c.Budget)] = fmt.Sprintf("ipt=%.9g", c.IPT)
	}
	xb := map[string]string{}
	for _, c := range b.cells {
		xb[fmt.Sprintf("%s on %s @%d", c.Workload, c.Arch, c.Budget)] = fmt.Sprintf("ipt=%.9g", c.IPT)
	}
	drift = diffMaps("matrix cells", xa, xb) || drift
	return drift
}

// diffMaps compares two keyed event sets and prints the divergence.
func diffMaps(what string, a, b map[string]string) bool {
	if len(a) == 0 && len(b) == 0 {
		return false
	}
	var diverged []string
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			diverged = append(diverged, fmt.Sprintf("%s: only in first (%s)", k, va))
		} else if va != vb {
			diverged = append(diverged, fmt.Sprintf("%s: %s -> %s", k, va, vb))
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			diverged = append(diverged, fmt.Sprintf("%s: only in second (%s)", k, vb))
		}
	}
	if len(diverged) == 0 {
		fmt.Printf("%s: %d compared, identical\n", what, len(a))
		return false
	}
	sort.Strings(diverged)
	fmt.Printf("%s: %d diverged of %d/%d\n", what, len(diverged), len(a), len(b))
	for i, d := range diverged {
		if i == maxShown {
			fmt.Printf("  ... %d more\n", len(diverged)-maxShown)
			break
		}
		fmt.Printf("  %s\n", d)
	}
	return true
}

// diffTimes reports the wall-clock movement between the runs —
// informational only, never drift.
func diffTimes(a, b *trace) {
	fmt.Println("time delta (informational)")
	if a.summary != nil && b.summary != nil {
		fmt.Printf("  run wall:  %.2fs -> %.2fs (%+.1f%%)\n",
			float64(a.summary.WallNs)/1e9, float64(b.summary.WallNs)/1e9,
			pctDelta(a.summary.WallNs, b.summary.WallNs))
		fmt.Printf("  misses:    %d -> %d (cache outcomes are scheduling-dependent, not drift)\n",
			a.summary.Misses, b.summary.Misses)
	}
	var simA, simB int64
	for _, e := range a.evals {
		simA += e.WallNs
	}
	for _, e := range b.evals {
		simB += e.WallNs
	}
	if simA > 0 || simB > 0 {
		fmt.Printf("  sim time:  %.2fs -> %.2fs (%+.1f%%)\n",
			float64(simA)/1e9, float64(simB)/1e9, pctDelta(simA, simB))
	}
}

func pctDelta(a, b int64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * float64(b-a) / float64(a)
}
