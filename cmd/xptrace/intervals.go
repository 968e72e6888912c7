// The intervals subcommand: render the phase timeline a run recorded with
// -intervals N. Each simulated member of an evaluation span carries its
// series of cumulative kernel snapshots, one every N committed
// instructions; the view differences consecutive records into
// per-interval rows — IPC, branch and cache behavior, and the dominant
// CPI bucket of the window — so program phases (a pointer-chasing stretch
// going memory-bound, a predictable loop running at full width) show as
// runs of rows, exactly the interval analysis of the SimPoint line of
// work. Output is deterministic: one table per simulation, sorted by
// (workload, config, budget) and then by the series itself.

package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/report"
)

func intervalsCmd(args []string) error {
	fs := flag.NewFlagSet("intervals", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("intervals: want exactly one trace file, got %d args", fs.NArg())
	}
	t, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeIntervalTimeline(os.Stdout, t)
}

// writeIntervalTimeline renders one table per simulated member that
// carries an interval series, each row the delta between consecutive
// cumulative snapshots.
func writeIntervalTimeline(w io.Writer, t *trace) error {
	var sims []eval
	for _, e := range t.evals {
		if len(e.intervals) > 0 {
			sims = append(sims, e)
		}
	}
	if len(sims) == 0 {
		_, err := fmt.Fprintln(w, "no interval records (run with -intervals N -trace FILE to collect them)")
		return err
	}
	// Distinct configurations may render to one string, so the series'
	// own bytes break the remaining ties.
	slices.SortFunc(sims, func(a, b eval) int {
		ra, _ := a.Intervals.(json.RawMessage)
		rb, _ := b.Intervals.(json.RawMessage)
		return cmp.Or(strings.Compare(a.workload, b.workload), strings.Compare(a.config(), b.config()),
			cmp.Compare(a.budget, b.budget), bytes.Compare(ra, rb))
	})

	for si, e := range sims {
		if si > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s on %s (budget %d): %d intervals\n", e.workload, e.config(), e.budget, len(e.intervals))
		tab := &report.Table{Header: []string{
			"seq", "instrs", "cycles", "ipc", "br-mr", "l1-mpki", "l2-mpki", "dominant",
		}}
		prev := pipeline.IntervalRecord{}
		for seq, r := range e.intervals {
			di := r.Instructions - prev.Instructions
			dc := r.Cycles - prev.Cycles
			ipc := "—"
			if dc > 0 {
				ipc = fmt.Sprintf("%.3f", float64(di)/float64(dc))
			}
			brMR := "—"
			if dl := r.Branch.Lookups - prev.Branch.Lookups; dl > 0 {
				brMR = fmt.Sprintf("%.1f%%", 100*float64(r.Branch.Mispredicts-prev.Branch.Mispredicts)/float64(dl))
			}
			mpki := func(dm uint64) string {
				if di == 0 {
					return "—"
				}
				return fmt.Sprintf("%.1f", 1000*float64(dm)/float64(di))
			}
			var delta pipeline.CPIStack
			for b := range delta {
				delta[b] = r.Stack[b] - prev.Stack[b]
			}
			dom := dominantBucket(delta)
			domCell := "—"
			if dc > 0 {
				domCell = fmt.Sprintf("%s %.0f%%", dom, 100*float64(delta[dom])/float64(dc))
			}
			tab.AddRow(fmt.Sprint(seq), fmt.Sprint(r.Instructions), fmt.Sprint(r.Cycles),
				ipc, brMR,
				mpki(r.L1.Misses-prev.L1.Misses), mpki(r.L2.Misses-prev.L2.Misses),
				domCell)
			prev = r
		}
		if err := tab.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// dominantBucket picks the interval's largest CPI bucket; ties resolve to
// the lowest bucket index, keeping the view deterministic.
func dominantBucket(s pipeline.CPIStack) pipeline.Bucket {
	best := pipeline.Bucket(0)
	for b := pipeline.Bucket(1); int(b) < pipeline.NumBuckets; b++ {
		if s[b] > s[best] {
			best = b
		}
	}
	return best
}
