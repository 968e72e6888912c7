// Package subsetting implements the conventional workload-subsetting
// baseline the paper argues against (§2.1, §5.3): characterizing workloads
// by microarchitecture-independent metrics, normalizing them, measuring
// Euclidean distances, and reducing the benchmark set by clustering.
//
// It also implements the Lee & Brooks-style alternative (paper §2.2):
// k-means clustering directly over configuration vectors, whose sensitivity
// to parameter normalization the paper criticizes — exposed here through
// pluggable normalization so the criticism is reproducible.
package subsetting

import (
	"fmt"
	"math"
	"sort"

	"xpscalar/internal/stats"
	"xpscalar/internal/workload"
)

// KiviatScale is the paper's Figure 1 presentation scale: characteristics
// normalized to 0..10 per axis across the workload set.
const KiviatScale = 10

// Kiviat holds one workload's normalized characteristic vector.
type Kiviat struct {
	Name string
	// Axes are the five Figure 1 axes (working-set size, branch
	// predictability, dependence-chain density, load frequency,
	// conditional-branch frequency), each normalized to 0..KiviatScale
	// across the set.
	Axes [5]float64
}

// KiviatSet normalizes the Figure 1 axes of a set of characteristics to a
// common 0..10 scale. Working-set sizes are log-scaled first, since they
// span orders of magnitude.
func KiviatSet(cs []workload.Characteristics) ([]Kiviat, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("subsetting: empty characteristic set")
	}
	raw := make([][]float64, len(cs))
	for i, c := range cs {
		raw[i] = []float64{
			math.Log2(float64(c.WorkingSetBlocks) + 1),
			c.BranchPredictability,
			c.DepChainDensity,
			c.LoadFrac,
			c.BranchFrac,
		}
	}
	norm := stats.Normalize01(raw)
	out := make([]Kiviat, len(cs))
	for i, c := range cs {
		out[i].Name = c.Name
		for j := range out[i].Axes {
			out[i].Axes[j] = norm[i][j] * KiviatScale
		}
	}
	return out, nil
}

// DistanceMatrix computes pairwise Euclidean distances between rows of a
// feature matrix.
func DistanceMatrix(features [][]float64) [][]float64 {
	n := len(features)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := stats.Euclidean(features[i], features[j])
			d[i][j], d[j][i] = dist, dist
		}
	}
	return d
}

// Linkage selects how agglomerative clustering merges clusters.
type Linkage int

const (
	// SingleLinkage merges by minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges by maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges by mean pairwise distance (UPGMA).
	AverageLinkage
)

func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// DendrogramNode is a node of the agglomerative clustering tree. Leaves
// have Left == Right == nil and a valid Item; internal nodes carry the
// merge Height.
type DendrogramNode struct {
	Item        int // leaf index, -1 for internal nodes
	Left, Right *DendrogramNode
	Height      float64
	members     []int
}

// Members returns the leaf indices under the node.
func (n *DendrogramNode) Members() []int {
	return append([]int(nil), n.members...)
}

// Dendrogram performs agglomerative hierarchical clustering over a distance
// matrix and returns the root node.
func Dendrogram(dist [][]float64, linkage Linkage) (*DendrogramNode, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("subsetting: empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, fmt.Errorf("subsetting: ragged distance matrix row %d", i)
		}
	}

	active := make([]*DendrogramNode, n)
	for i := range active {
		active[i] = &DendrogramNode{Item: i, members: []int{i}}
	}

	linkDist := func(a, b *DendrogramNode) float64 {
		best := 0.0
		sum := 0.0
		count := 0
		first := true
		for _, x := range a.members {
			for _, y := range b.members {
				d := dist[x][y]
				sum += d
				count++
				switch linkage {
				case SingleLinkage:
					if first || d < best {
						best = d
					}
				case CompleteLinkage:
					if first || d > best {
						best = d
					}
				}
				first = false
			}
		}
		if linkage == AverageLinkage {
			return sum / float64(count)
		}
		return best
	}

	for len(active) > 1 {
		bi, bj, bd := 0, 1, math.Inf(1)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if d := linkDist(active[i], active[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := &DendrogramNode{
			Item:    -1,
			Left:    active[bi],
			Right:   active[bj],
			Height:  bd,
			members: append(append([]int(nil), active[bi].members...), active[bj].members...),
		}
		sort.Ints(merged.members)
		next := make([]*DendrogramNode, 0, len(active)-1)
		for k, node := range active {
			if k != bi && k != bj {
				next = append(next, node)
			}
		}
		active = append(next, merged)
	}
	return active[0], nil
}

// CutAt returns the clusters obtained by cutting the dendrogram at the
// given height: every maximal subtree whose merge height is <= h.
func (n *DendrogramNode) CutAt(h float64) [][]int {
	var out [][]int
	var walk func(node *DendrogramNode)
	walk = func(node *DendrogramNode) {
		if node.Item >= 0 || node.Height <= h {
			out = append(out, node.Members())
			return
		}
		walk(node.Left)
		walk(node.Right)
	}
	walk(n)
	return out
}

// CutK cuts the dendrogram into exactly k clusters by undoing the k-1 most
// expensive merges.
func (n *DendrogramNode) CutK(k int) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("subsetting: k = %d", k)
	}
	frontier := []*DendrogramNode{n}
	for len(frontier) < k {
		// Split the frontier node with the greatest merge height.
		best := -1
		for i, node := range frontier {
			if node.Item >= 0 {
				continue
			}
			if best < 0 || node.Height > frontier[best].Height {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("subsetting: cannot cut %d leaves into %d clusters", len(frontier), k)
		}
		node := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		frontier = append(frontier, node.Left, node.Right)
	}
	out := make([][]int, len(frontier))
	for i, node := range frontier {
		out[i] = node.Members()
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out, nil
}

// Representatives picks one representative per cluster: the member with the
// smallest total distance to its cluster peers (the medoid).
func Representatives(clusters [][]int, dist [][]float64) []int {
	out := make([]int, len(clusters))
	for ci, cluster := range clusters {
		best, bestSum := cluster[0], math.Inf(1)
		for _, cand := range cluster {
			sum := 0.0
			for _, other := range cluster {
				sum += dist[cand][other]
			}
			if sum < bestSum {
				best, bestSum = cand, sum
			}
		}
		out[ci] = best
	}
	return out
}
