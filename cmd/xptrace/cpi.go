// The cpi subcommand: render the CPI stacks a -cpi run recorded on its
// evaluation spans. Every simulated cycle was attributed to exactly one
// bucket inside the kernel (base, front-end starvation, branch recovery,
// the three load-miss levels, the three back-pressure walls, the store
// port), so each evaluation's stack is a complete decomposition of its
// cycle count — the view the paper's slowdown tables hint at but never
// show. Output is deterministic: rows sort by workload, configuration,
// budget and stack, and shares derive from exact integer cycle counts.

package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

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

// cpiRow is one simulation's CPI stack pulled from the trace.
type cpiRow struct {
	workload string
	config   string
	budget   int
	stack    pipeline.CPIStack
}

// writeCPIStacks renders every distinct CPI stack in the trace. A cache
// hit replays the memoized stack of its miss, so exact repeats — same
// workload, configuration, budget and stack — are one row; anything else
// is a different simulation and keeps its own, even where two
// configurations render to the same string.
func writeCPIStacks(w io.Writer, t *trace) error {
	var rows []cpiRow
	for _, e := range t.evals {
		if e.CPI == nil || e.Config == nil {
			continue
		}
		rows = append(rows, cpiRow{e.workload, e.config(), e.budget, pipeline.StackFromMap(e.CPI.Map())})
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "no CPI stacks in trace (run with -cpi to record them)")
		return err
	}
	slices.SortFunc(rows, func(a, b cpiRow) int {
		return cmp.Or(strings.Compare(a.workload, b.workload), strings.Compare(a.config, b.config),
			cmp.Compare(a.budget, b.budget), slices.Compare(a.stack[:], b.stack[:]))
	})
	rows = slices.Compact(rows)

	// Long canonical config strings would drown the table; index them in a
	// legend and let rows carry the index.
	cfgIdx := map[string]int{}
	var cfgs []string
	for _, r := range rows {
		if _, ok := cfgIdx[r.config]; !ok {
			cfgIdx[r.config] = len(cfgs)
			cfgs = append(cfgs, r.config)
		}
	}
	fmt.Fprintf(w, "CPI stacks: %d (workload, configuration) pairs\nconfigurations:\n", len(rows))
	for i, c := range cfgs {
		fmt.Fprintf(w, "  [%d] %s\n", i, c)
	}
	fmt.Fprintln(w)

	names := pipeline.BucketNames()
	tab := &report.Table{Header: append([]string{"workload", "cfg", "cycles", "cpi"}, names[:]...)}
	for _, r := range rows {
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
