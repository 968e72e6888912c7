// Command combos runs the exhaustive best-core-combination search of §5.2:
// for each core count and figure of merit it prints the winning combination
// (Table 6), the per-benchmark performance under the chosen core sets
// (Figure 4's series), and the dual-core summary (Table 7).
//
// Usage:
//
//	combos [-source paper|file:path] [-maxk n] [-figure4] [-summary] [-weights w1,w2,...]
//
// A matrix of the synthetic suite comes from crossconf -source sim
// -savematrix m.json, read with -source file:m.json. Tables go to stdout;
// diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xpscalar/internal/cli"
	"xpscalar/internal/core"
	"xpscalar/internal/report"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(context.Context) error {
	var (
		source      = flag.String("source", "paper", "matrix source: paper or file:<path> (a crossconf -savematrix file)")
		maxK        = flag.Int("maxk", 4, "largest core count to search")
		fig4        = flag.Bool("figure4", false, "print per-benchmark IPT under the chosen core sets (Figure 4)")
		summary     = flag.Bool("summary", false, "print the dual-core summary (Table 7)")
		weightsFlag = flag.String("weights", "", "comma-separated importance weights, one per benchmark")
	)
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("combos"); err != nil {
		return err
	}

	m, err := cli.ReadMatrix(*source)
	if err != nil {
		return err
	}
	weights, err := parseWeights(*weightsFlag, m.N())
	if err != nil {
		return err
	}

	if *summary {
		return printSummary(m, weights)
	}

	if err := table6(m, *maxK, weights); err != nil {
		return err
	}
	if *fig4 {
		fmt.Println()
		return figure4(m, weights)
	}
	return nil
}

func parseWeights(s string, n int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%d weights for %d benchmarks", len(parts), n)
	}
	ws := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		ws[i] = v
	}
	return ws, nil
}

func table6(m *core.Matrix, maxK int, weights []float64) error {
	fmt.Println("Best core combinations (Table 6)")
	tab := &report.Table{Header: []string{"cores", "metric", "combination", "avg IPT", "har IPT"}}
	for k := 1; k <= maxK; k++ {
		for _, metric := range []core.Metric{core.MetricAvg, core.MetricHar, core.MetricCWHar} {
			c, err := m.BestCombination(k, metric, weights)
			if err != nil {
				return err
			}
			tab.AddRow(
				fmt.Sprint(k),
				metric.String(),
				strings.Join(m.ArchNames(c.Archs), ", "),
				fmt.Sprintf("%.3f", c.AvgIPT),
				fmt.Sprintf("%.3f", c.HarIPT),
			)
		}
	}
	all := make([]int, m.N())
	for i := range all {
		all[i] = i
	}
	tab.AddRow(fmt.Sprint(m.N()), "ideal", "each on its own customized arch",
		fmt.Sprintf("%.3f", m.Merit(all, core.MetricAvg, weights)),
		fmt.Sprintf("%.3f", m.Merit(all, core.MetricHar, weights)))
	return tab.Write(os.Stdout)
}

func figure4(m *core.Matrix, weights []float64) error {
	single, err := m.BestCombination(1, core.MetricAvg, weights)
	if err != nil {
		return err
	}
	twoAvg, err := m.BestCombination(2, core.MetricAvg, weights)
	if err != nil {
		return err
	}
	twoHar, err := m.BestCombination(2, core.MetricHar, weights)
	if err != nil {
		return err
	}
	twoCW, err := m.BestCombination(2, core.MetricCWHar, weights)
	if err != nil {
		return err
	}
	all := make([]int, m.N())
	for i := range all {
		all[i] = i
	}
	series := []struct {
		name string
		sel  []int
	}{
		{"best single core", single.Archs},
		{"best 2 for avg IPT", twoAvg.Archs},
		{"best 2 for har IPT", twoHar.Archs},
		{"best 2 for cw-har IPT", twoCW.Archs},
		{"own customized core", all},
	}

	fmt.Println("Per-benchmark IPT on the best available core (Figure 4)")
	header := []string{"workload"}
	for _, s := range series {
		header = append(header, s.name)
	}
	tab := &report.Table{Header: header}
	for w, name := range m.Names {
		row := []string{name}
		for _, s := range series {
			_, ipt := m.BestIn(w, s.sel)
			row = append(row, fmt.Sprintf("%.2f", ipt))
		}
		tab.AddRow(row...)
	}
	return tab.Write(os.Stdout)
}

func printSummary(m *core.Matrix, weights []float64) error {
	all := make([]int, m.N())
	for i := range all {
		all[i] = i
	}
	ideal := m.Merit(all, core.MetricHar, weights)
	single, err := m.BestCombination(1, core.MetricHar, weights)
	if err != nil {
		return err
	}
	complete, err := m.BestCombination(2, core.MetricHar, weights)
	if err != nil {
		return err
	}
	surr, err := core.GreedySurrogates(m, core.PolicyFullPropagation, weights)
	if err != nil {
		return err
	}

	fmt.Println("Dual-core summary (Table 7)")
	tab := &report.Table{Header: []string{"scenario", "har IPT", "slowdown vs ideal"}}
	row := func(name string, har float64) {
		tab.AddRow(name, fmt.Sprintf("%.3f", har), fmt.Sprintf("%.0f%%", (1-har/ideal)*100))
	}
	row("ideal (own customized arch each)", ideal)
	row(fmt.Sprintf("homogeneous (%s)", strings.Join(m.ArchNames(single.Archs), ", ")), single.HarIPT)
	row(fmt.Sprintf("complete search (%s)", strings.Join(m.ArchNames(complete.Archs), ", ")), complete.HarIPT)
	row("greedy surrogates, full propagation", surr.HarmonicIPT())
	return tab.Write(os.Stdout)
}
