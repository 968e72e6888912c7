// Command surrogate prints the greedy surrogating-graphs of §5.4 under the
// three propagation policies (Figures 6–8), with per-group membership,
// assignment order, slowdowns, feedback-surrogating annotations, and
// resulting system performance.
//
// Usage:
//
//	surrogate [-source paper|sim|file:path|outcomes:path] [-policy none|forward|full|all]
//	          [-trace file] [-progress]
//
// Graphs go to stdout; diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/core"
	"xpscalar/internal/report"
	"xpscalar/internal/session"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		source = flag.String("source", "paper", "matrix source: paper, sim, file:<path> (a crossconf -savematrix file) or outcomes:<path> (an xpscalar -save file)")
		policy = flag.String("policy", "all", "propagation policy: none|forward|full|all")
	)
	var rcfg cli.RunConfig
	rcfg.RegisterFlags()
	var tcfg cli.TelemetryConfig
	tcfg.RegisterFlags()
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("surrogate"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	sess := session.Default()
	tel, err := cli.StartTelemetry("surrogate", sess, tcfg)
	defer func() {
		if cerr := tel.Close(); cerr != nil {
			slog.Error(cerr.Error())
		}
	}()
	if err != nil {
		return err
	}
	ctx = tel.Context(ctx)

	mo := cli.DefaultMatrixOptions()
	mo.Session = sess
	m, err := cli.LoadMatrix(ctx, *source, mo)
	if err != nil {
		return err
	}

	policies := []core.Policy{core.PolicyNoPropagation, core.PolicyForwardPropagation, core.PolicyFullPropagation}
	if *policy != "all" {
		p, err := cli.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		policies = []core.Policy{p}
	}

	figure := map[core.Policy]string{
		core.PolicyNoPropagation:      "Figure 6",
		core.PolicyForwardPropagation: "Figure 8",
		core.PolicyFullPropagation:    "Figure 7",
	}
	for i, p := range policies {
		if i > 0 {
			fmt.Println()
		}
		g, err := core.GreedySurrogates(m, p, nil)
		if err != nil {
			return err
		}
		fmt.Printf("Greedy surrogate assignment, %v (%s analogue)\n", p, figure[p])
		if err := report.SurrogateGraph(os.Stdout, m, g); err != nil {
			return err
		}
	}
	return nil
}
