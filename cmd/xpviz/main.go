// Command xpviz is the visualization tool the paper ships with xp-scalar
// (§3): it renders the cross-configuration performance of the benchmarks on
// each other's customized configurations as a heat map, easing the
// identification of discrepancies — workloads whose architectures carry
// others well (light columns) and workloads nothing else serves (dark
// rows).
//
// Usage:
//
//	xpviz [-source paper|sim] [-trace file] [-progress]
//
// The heat map goes to stdout; diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/report"
	"xpscalar/internal/session"
	"xpscalar/internal/stats"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	source := flag.String("source", "paper", "matrix source: paper or sim")
	var rcfg cli.RunConfig
	rcfg.RegisterFlags()
	var tcfg cli.TelemetryConfig
	tcfg.RegisterFlags()
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("xpviz"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	sess := session.Default()
	tel, err := cli.StartTelemetry("xpviz", sess, tcfg)
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

	fmt.Println("Cross-configuration slowdown heat map (rows: workloads, columns: architectures)")
	fmt.Println()
	if err := report.Heatmap(os.Stdout, m); err != nil {
		return err
	}

	// Column summary: how well each architecture serves the whole suite.
	fmt.Println("\narchitecture generality (harmonic-mean IPT of the suite on each single arch):")
	for a, name := range m.Names {
		col := make([]float64, m.N())
		for w := 0; w < m.N(); w++ {
			col[w] = m.IPT[w][a]
		}
		fmt.Printf("  %-8s %.3f\n", name, stats.HarmonicMean(col))
	}
	return nil
}
