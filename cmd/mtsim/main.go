// Command mtsim runs the §5.5 multiprogrammed experiments: a heterogeneous
// CMP (chosen by complete search or BPMST partitioning) serving a Poisson
// or bursty job stream under the stall-for-designated-core and
// next-best-available dispatch policies, sweeping burstiness to show the
// erosion of heterogeneity's benefit.
//
// Usage:
//
//	mtsim [-source paper|file:path]
//	      [-cores k] [-jobs n] [-interarrival t] [-work w] [-sweep] [-seed n]
//	      [-timeout d]
//
// A matrix of the synthetic suite comes from crossconf -source sim
// -savematrix m.json, read with -source file:m.json. -timeout bounds the
// contention simulation. Tables go to stdout; diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/core"
	"xpscalar/internal/multithread"
	"xpscalar/internal/report"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		source = flag.String("source", "paper", "matrix source: paper or file:<path> (a crossconf -savematrix file)")
		cores  = flag.Int("cores", 2, "number of cores")
		jobs   = flag.Int("jobs", 4000, "jobs to simulate")
		inter  = flag.Float64("interarrival", 25, "mean job interarrival time")
		work   = flag.Float64("work", 50, "mean job work (instructions)")
		sweep  = flag.Bool("sweep", false, "sweep burstiness 0..8")
		seed   = flag.Int64("seed", 7, "arrival stream seed")
	)
	var rcfg cli.RunConfig
	rcfg.RegisterFlags()
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("mtsim"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	m, err := cli.ReadMatrix(*source)
	if err != nil {
		return err
	}

	selection, err := m.BestCombination(*cores, core.MetricHar, nil)
	if err != nil {
		return err
	}
	selSys, err := multithread.SystemFromSelection(m, selection.Archs)
	if err != nil {
		return err
	}
	part, err := multithread.BPMST(m, *cores, nil)
	if err != nil {
		return err
	}
	bpSys, err := multithread.SystemFromPartition(m, part)
	if err != nil {
		return err
	}

	fmt.Printf("complete-search cores: %v\n", m.ArchNames(selection.Archs))
	fmt.Printf("BPMST cores:           %v  groups: ", m.ArchNames(part.Archs))
	for gi, g := range part.Groups {
		if gi > 0 {
			fmt.Print(" | ")
		}
		for i, w := range g {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Print(m.Names[w])
		}
	}
	fmt.Println()

	burstiness := []float64{0}
	if *sweep {
		burstiness = []float64{0, 1, 2, 4, 8}
	}

	tab := &report.Table{Header: []string{
		"system", "policy", "burstiness", "avg turnaround", "svc slowdown", "redirects", "max queue",
	}}
	simulate := func(name string, sys multithread.System, policy multithread.Policy, b float64) error {
		met, err := multithread.Simulate(ctx, sys, multithread.Arrivals{
			Jobs: *jobs, MeanInterarrival: *inter, MeanWork: *work, Burstiness: b, Seed: *seed,
		}, policy)
		if err != nil {
			return err
		}
		tab.AddRow(name, policy.String(), fmt.Sprintf("%.0f", b),
			fmt.Sprintf("%.1f", met.AvgTurnaround),
			fmt.Sprintf("%.1f%%", met.AvgServiceSlow*100),
			fmt.Sprint(met.Redirections),
			fmt.Sprint(met.MaxQueueDepth))
		return nil
	}
	for _, b := range burstiness {
		for _, r := range []struct {
			name   string
			sys    multithread.System
			policy multithread.Policy
		}{
			{"complete-search", selSys, multithread.StallForDesignated},
			{"complete-search", selSys, multithread.NextBestAvailable},
			{"bpmst", bpSys, multithread.StallForDesignated},
			{"bpmst", bpSys, multithread.NextBestAvailable},
		} {
			if err := simulate(r.name, r.sys, r.policy, b); err != nil {
				return err
			}
		}
	}
	fmt.Println()
	return tab.Write(os.Stdout)
}
