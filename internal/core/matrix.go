// Package core implements the paper's contribution: configurational
// workload characterization and the communal-customization analyses built
// on it (paper §5).
//
// The central object is the cross-configuration performance matrix — the
// IPT of every workload on every workload's customized architecture
// (Table 5). From it the package derives the Appendix A slowdown matrix,
// the figures of merit of §5.2 (average, harmonic-mean and
// contention-weighted harmonic-mean IPT), the exhaustive best-core-
// combination search (Table 6, Figure 4, Table 7), and the greedy surrogate
// assignment graphs of §5.4 under the three propagation policies
// (Figures 6–8).
package core

import (
	"fmt"

	"xpscalar/internal/stats"
)

// Matrix is a cross-configuration performance matrix: IPT[w][a] is the
// performance of workload w on the customized architecture of workload a.
// Rows and columns share the same name order.
type Matrix struct {
	Names []string
	IPT   [][]float64
}

// NewMatrix validates and wraps a square cross-configuration matrix.
func NewMatrix(names []string, ipt [][]float64) (*Matrix, error) {
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("core: empty matrix")
	}
	if len(ipt) != n {
		return nil, fmt.Errorf("core: %d rows for %d names", len(ipt), n)
	}
	for i, row := range ipt {
		if len(row) != n {
			return nil, fmt.Errorf("core: row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v <= 0 {
				return nil, fmt.Errorf("core: non-positive IPT at [%d][%d]", i, j)
			}
		}
	}
	if err := checkNames(names); err != nil {
		return nil, err
	}
	return &Matrix{Names: names, IPT: ipt}, nil
}

// checkNames rejects an empty or repeated name: rows and columns are
// found by name.
func checkNames(names []string) error {
	seen := map[string]bool{}
	for _, name := range names {
		if name == "" || seen[name] {
			return fmt.Errorf("core: duplicate or empty name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// N returns the number of workloads (and architectures).
func (m *Matrix) N() int { return len(m.Names) }

// Index returns the position of the named workload, or -1.
func (m *Matrix) Index(name string) int {
	for i, n := range m.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Slowdown returns the fractional slowdown of workload w on architecture a
// relative to its own customized architecture (Appendix A's entries):
// 1 - IPT[w][a]/IPT[w][w].
func (m *Matrix) Slowdown(w, a int) float64 {
	return 1 - m.IPT[w][a]/m.IPT[w][w]
}

// SlowdownMatrix returns the full Appendix A matrix.
func (m *Matrix) SlowdownMatrix() [][]float64 {
	n := m.N()
	out := make([][]float64, n)
	for w := 0; w < n; w++ {
		out[w] = make([]float64, n)
		for a := 0; a < n; a++ {
			out[w][a] = m.Slowdown(w, a)
		}
	}
	return out
}

// BestIn returns the architecture in sel on which workload w performs best,
// and the achieved IPT. Ties resolve to the earliest architecture in sel.
func (m *Matrix) BestIn(w int, sel []int) (arch int, ipt float64) {
	if len(sel) == 0 {
		panic("core: BestIn with empty selection")
	}
	arch, ipt = sel[0], m.IPT[w][sel[0]]
	for _, a := range sel[1:] {
		if m.IPT[w][a] > ipt {
			arch, ipt = a, m.IPT[w][a]
		}
	}
	return arch, ipt
}

// Assignment records which architecture a workload runs on and the
// resulting performance — one bar cluster of the paper's Figure 4.
type Assignment struct {
	Workload int
	Arch     int
	IPT      float64
}

// Assignments maps every workload to its best architecture within sel.
func (m *Matrix) Assignments(sel []int) []Assignment {
	out := make([]Assignment, m.N())
	for w := 0; w < m.N(); w++ {
		a, ipt := m.BestIn(w, sel)
		out[w] = Assignment{Workload: w, Arch: a, IPT: ipt}
	}
	return out
}

// Metric is a figure of merit over a core selection (paper §5.2).
type Metric int

const (
	// MetricAvg maximizes the average IPT of each workload on its most
	// suitable selected core: the figure for isolated job submission.
	MetricAvg Metric = iota
	// MetricHar maximizes the harmonic-mean IPT: the figure for the
	// total execution time of consecutive jobs.
	MetricHar
	// MetricCWHar is the contention-weighed harmonic mean: each
	// workload's IPT is divided by the number of workloads sharing its
	// chosen core before taking the harmonic mean — the figure for
	// concurrent execution on separate cores.
	MetricCWHar
)

func (mt Metric) String() string {
	switch mt {
	case MetricAvg:
		return "avg"
	case MetricHar:
		return "har"
	case MetricCWHar:
		return "cw-har"
	default:
		return fmt.Sprintf("Metric(%d)", int(mt))
	}
}

// Merit evaluates a selection of architectures under a metric. A nil
// weights slice means equal importance weights; otherwise weights must have
// one positive entry per workload.
func (m *Matrix) Merit(sel []int, metric Metric, weights []float64) float64 {
	if weights != nil && len(weights) != m.N() {
		panic(fmt.Sprintf("core: %d weights for %d workloads", len(weights), m.N()))
	}
	asg := m.Assignments(sel)
	perf := make([]float64, m.N())
	switch metric {
	case MetricAvg:
		for w, a := range asg {
			perf[w] = a.IPT
		}
		return stats.WeightedMean(perf, normWeights(weights, m.N()))
	case MetricHar:
		for w, a := range asg {
			perf[w] = a.IPT
		}
		return stats.WeightedHarmonicMean(perf, weights)
	case MetricCWHar:
		// Contention: total importance weight mapped to each core.
		load := map[int]float64{}
		ws := normWeights(weights, m.N())
		for w, a := range asg {
			load[a.Arch] += ws[w]
		}
		for w, a := range asg {
			perf[w] = a.IPT / load[a.Arch]
		}
		return stats.WeightedHarmonicMean(perf, weights)
	default:
		panic(fmt.Sprintf("core: unknown metric %v", metric))
	}
}

func normWeights(weights []float64, n int) []float64 {
	if weights != nil {
		return weights
	}
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// Combination is the outcome of a best-core-combination search.
type Combination struct {
	Archs []int
	Merit float64
	// AvgIPT and HarIPT report the plain average and harmonic-mean IPT
	// of the combination regardless of the metric optimized, matching
	// the columns of the paper's Table 6.
	AvgIPT, HarIPT float64
}

// BestCombination exhaustively searches all C(n,k) selections of k
// architectures and returns the one maximizing the metric (paper §5.2,
// Table 6). Ties resolve to the lexicographically smallest selection.
func (m *Matrix) BestCombination(k int, metric Metric, weights []float64) (Combination, error) {
	if k < 1 || k > m.N() {
		return Combination{}, fmt.Errorf("core: combination size %d outside [1,%d]", k, m.N())
	}
	best := Combination{Merit: -1}
	stats.Combinations(m.N(), k, func(idx []int) bool {
		merit := m.Merit(idx, metric, weights)
		if merit > best.Merit {
			best.Merit = merit
			best.Archs = append(best.Archs[:0], idx...)
		}
		return true
	})
	best.AvgIPT = m.Merit(best.Archs, MetricAvg, weights)
	best.HarIPT = m.Merit(best.Archs, MetricHar, weights)
	return best, nil
}

// ArchNames resolves a selection to names.
func (m *Matrix) ArchNames(sel []int) []string {
	out := make([]string, len(sel))
	for i, a := range sel {
		out[i] = m.Names[a]
	}
	return out
}

// Sub returns a reduced matrix restricted to the named workloads, in the
// order given — the tool for §5.3's "drop bzip, let gzip represent it"
// experiment.
func (m *Matrix) Sub(names []string) (*Matrix, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		j := m.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("core: unknown workload %q", name)
		}
		idx[i] = j
	}
	ipt := make([][]float64, len(idx))
	for i, wi := range idx {
		ipt[i] = make([]float64, len(idx))
		for j, aj := range idx {
			ipt[i][j] = m.IPT[wi][aj]
		}
	}
	return NewMatrix(names, ipt)
}
