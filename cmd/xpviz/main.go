// Command xpviz is the visualization tool the paper ships with xp-scalar
// (§3): it renders the cross-configuration performance of the benchmarks on
// each other's customized configurations as a heat map, easing the
// identification of discrepancies — workloads whose architectures carry
// others well (light columns) and workloads nothing else serves (dark
// rows).
//
// Usage:
//
//	xpviz [-source paper|file:path]
//
// A matrix of the synthetic suite comes from crossconf -source sim
// -savematrix m.json, read with -source file:m.json. The heat map goes to
// stdout; diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/report"
	"xpscalar/internal/stats"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(context.Context) error {
	source := flag.String("source", "paper", "matrix source: paper or file:<path> (a crossconf -savematrix file)")
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("xpviz"); err != nil {
		return err
	}

	m, err := cli.ReadMatrix(*source)
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
