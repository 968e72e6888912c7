// The report subcommand: digest one run into the views that answer "how
// did the search behave" — per-chain convergence, the acceptance-rate
// curve, the cache-effectiveness timeline, the run summary — and "where
// did the time go": the per-phase time breakdown of its stream.

package main

import (
	"fmt"
	"os"
	"sort"

	"xpscalar/internal/report"
	"xpscalar/internal/tracing"
)

// buckets is the resolution of the curve and timeline views: the run is
// cut into this many equal slices.
const buckets = 10

func reportCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("report: want exactly one trace file, got %d args", len(args))
	}
	t, err := loadTrace(args[0])
	if err != nil {
		return err
	}

	printManifest(t)
	if err := printChains(t); err != nil {
		return err
	}
	printAcceptanceCurve(t)
	printCacheTimeline(t)
	printSummary(t)

	label := t.meta.Tool
	if label == "" {
		label = t.path
	}
	fmt.Printf("\nPhase time breakdown: %s (%d spans)\n", label, len(t.spans))
	return tracing.WriteAttribution(os.Stdout, t.spans)
}

func printManifest(t *trace) {
	fmt.Printf("run trace %s\n", t.path)
	if m := t.meta.Manifest; m != nil {
		fmt.Printf("  tool %s  seed %d  %s %s/%s  GOMAXPROCS %d\n",
			t.meta.Tool, m.Seed, m.GoVersion, m.OS, m.Arch, m.MaxProcs)
	}
}

// printChains renders the annealing convergence table: one row per chain
// with its step count, acceptance and feasibility rates, and how the best
// score moved from the first decile of the search to the end.
func printChains(t *trace) error {
	if len(t.steps) == 0 && len(t.chains) == 0 {
		return nil
	}
	type key struct {
		workload string
		chain    int
	}
	type agg struct {
		steps, accepted, feasible int
		earlyBest, finalBest      float64
	}
	byChain := map[key]*agg{}
	var order []key
	for _, s := range t.steps {
		k := key{s.workload, s.Chain}
		a := byChain[k]
		if a == nil {
			a = &agg{}
			byChain[k] = a
			order = append(order, k)
		}
		a.steps++
		if s.Accepted {
			a.accepted++
		}
		if s.Feasible {
			a.feasible++
		}
		if s.iteration*buckets <= s.TotalIterations {
			a.earlyBest = s.BestScore
		}
		a.finalBest = s.BestScore
	}
	results := map[key]float64{}
	evals := map[key]int{}
	for _, c := range t.chains {
		k := key{c.workload, c.index}
		results[k] = c.BestScore
		evals[k] = c.Evaluations
		if byChain[k] == nil {
			byChain[k] = &agg{finalBest: c.BestScore}
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].chain < order[j].chain
	})

	fmt.Println("\nAnnealing convergence per chain")
	tab := &report.Table{Header: []string{
		"workload", "chain", "steps", "accept%", "feasible%", "early best", "final best", "evals",
	}}
	for _, k := range order {
		a := byChain[k]
		final := a.finalBest
		if r, ok := results[k]; ok {
			final = r
		}
		pct := func(n int) string {
			if a.steps == 0 {
				return "—"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(a.steps))
		}
		tab.AddRow(k.workload, fmt.Sprint(k.chain), fmt.Sprint(a.steps),
			pct(a.accepted), pct(a.feasible),
			fmt.Sprintf("%.4f", a.earlyBest), fmt.Sprintf("%.4f", final),
			fmt.Sprint(evals[k]))
	}
	return tab.Write(os.Stdout)
}

// printAcceptanceCurve buckets all annealing steps by search progress
// (iteration over total) and prints the acceptance rate per bucket — the
// cooling schedule made visible: high early, falling as temperature drops.
func printAcceptanceCurve(t *trace) {
	if len(t.steps) == 0 {
		return
	}
	var total, accepted [buckets]int
	for _, s := range t.steps {
		if s.TotalIterations <= 0 {
			continue
		}
		b := (s.iteration - 1) * buckets / s.TotalIterations
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		total[b]++
		if s.Accepted {
			accepted[b]++
		}
	}
	fmt.Println("\nAcceptance rate over search progress")
	fmt.Print("  progress:")
	for b := 0; b < buckets; b++ {
		fmt.Printf(" %5d%%", (b+1)*100/buckets)
	}
	fmt.Print("\n  accept:  ")
	for b := 0; b < buckets; b++ {
		if total[b] == 0 {
			fmt.Printf(" %6s", "—")
			continue
		}
		fmt.Printf(" %5.0f%%", 100*float64(accepted[b])/float64(total[b]))
	}
	fmt.Println()
}

// printCacheTimeline buckets evaluations by run time and prints how the
// engine served them — the cache warming up over the run.
func printCacheTimeline(t *trace) {
	if len(t.evals) == 0 {
		return
	}
	maxT := int64(1)
	for _, e := range t.evals {
		maxT = max(maxT, e.endNs)
	}
	var total, served [buckets]int
	for _, e := range t.evals {
		b := int(e.endNs * buckets / (maxT + 1))
		if b >= buckets {
			b = buckets - 1
		}
		total[b]++
		if e.Outcome == "hit" || e.Outcome == "dedup" || e.Outcome == "disk" {
			served[b]++
		}
	}
	fmt.Println("\nCache effectiveness over run time (hit+dedup+disk rate)")
	fmt.Print("  time:    ")
	for b := 0; b < buckets; b++ {
		fmt.Printf(" %5d%%", (b+1)*100/buckets)
	}
	fmt.Print("\n  cached:  ")
	for b := 0; b < buckets; b++ {
		if total[b] == 0 {
			fmt.Printf(" %6s", "—")
			continue
		}
		fmt.Printf(" %5.0f%%", 100*float64(served[b])/float64(total[b]))
	}
	fmt.Println()
}

func printSummary(t *trace) {
	s := t.summary
	if s == nil {
		fmt.Println("\nno run summary (interrupted trace)")
		return
	}
	fmt.Printf("\nRun summary: wall %.2fs, %d evaluations (%d hits, %d deduped, %d misses), %d cache entries\n",
		float64(t.wallNs)/1e9, s.Requests, s.Hits, s.Deduped, s.Misses, s.CacheEntries)
	if s.DiskHits > 0 || s.DiskMisses > 0 {
		fmt.Printf("Disk tier: %d hits, %d misses\n", s.DiskHits, s.DiskMisses)
	}
	if s.LockstepGroups > 0 || s.ScalarFallbacks > 0 {
		avg := 0.0
		if s.LockstepGroups > 0 {
			avg = float64(s.LockstepLanes) / float64(s.LockstepGroups)
		}
		fmt.Printf("Lockstep: %d groups covering %d misses (avg size %.1f), %d scalar fallbacks\n",
			s.LockstepGroups, s.LockstepLanes, avg, s.ScalarFallbacks)
	}
}
