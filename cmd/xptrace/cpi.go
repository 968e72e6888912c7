// The cpi subcommand: render the CPI stacks a -cpi run recorded on its
// evaluation spans. Every simulated cycle was attributed to exactly one
// bucket inside the kernel (base, front-end starvation, branch recovery,
// the three load-miss levels, the three back-pressure walls, the store
// port), so each evaluation's stack is a complete decomposition of its
// cycle count — the view the paper's slowdown tables hint at but never
// show. Output is deterministic: workloads and configurations sort
// lexically, and shares derive from exact integer cycle counts.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/report"
)

func cpiCmd(args []string) error {
	fs := flag.NewFlagSet("cpi", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cpi: want exactly one trace file, got %d args", fs.NArg())
	}
	t, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeCPIStacks(os.Stdout, t)
}

// cpiRow is one (workload, configuration) CPI stack pulled from the trace.
type cpiRow struct {
	workload string
	config   string
	budget   int
	stack    pipeline.CPIStack
}

// writeCPIStacks renders every distinct CPI stack in the trace. Cache hits
// replay the memoized stack of the original miss, so rows are deduplicated
// by (workload, configuration); the numbers are identical either way.
func writeCPIStacks(w io.Writer, t *trace) error {
	type key struct{ workload, config string }
	rows := map[key]cpiRow{}
	for _, e := range t.evals {
		if e.CPI == nil || e.Config == nil {
			continue
		}
		k := key{e.workload, e.Config.String()}
		rows[k] = cpiRow{
			workload: k.workload,
			config:   k.config,
			budget:   e.budget,
			stack:    pipeline.StackFromMap(e.CPI.Map()),
		}
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "no CPI stacks in trace (run with -cpi to record them)")
		return err
	}
	keys := make([]key, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].config < keys[j].config
	})

	// Long canonical config strings would drown the table; index them in a
	// legend and let rows carry the index.
	cfgIdx := map[string]int{}
	var cfgs []string
	for _, k := range keys {
		if _, ok := cfgIdx[k.config]; !ok {
			cfgIdx[k.config] = len(cfgs)
			cfgs = append(cfgs, k.config)
		}
	}
	fmt.Fprintf(w, "CPI stacks: %d (workload, configuration) pairs\nconfigurations:\n", len(keys))
	for i, c := range cfgs {
		fmt.Fprintf(w, "  [%d] %s\n", i, c)
	}
	fmt.Fprintln(w)

	names := pipeline.BucketNames()
	tab := &report.Table{Header: append([]string{"workload", "cfg", "cycles", "cpi"}, names[:]...)}
	for _, k := range keys {
		r := rows[k]
		cycles := r.stack.Cycles()
		cpi := "—"
		if r.budget > 0 {
			cpi = fmt.Sprintf("%.3f", float64(cycles)/float64(r.budget))
		}
		cells := []string{r.workload, fmt.Sprint(cfgIdx[r.config]), fmt.Sprint(cycles), cpi}
		for b := pipeline.Bucket(0); int(b) < pipeline.NumBuckets; b++ {
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*r.stack.Share(b)))
		}
		tab.AddRow(cells...)
	}
	return tab.Write(w)
}
