package subsetting

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpscalar/internal/workload"
)

func suiteCharacteristics(t testing.TB, n int) []workload.Characteristics {
	t.Helper()
	var cs []workload.Characteristics
	for _, p := range workload.Suite() {
		c, err := workload.Extract(p, n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestKiviatSetScalesToTen(t *testing.T) {
	cs := suiteCharacteristics(t, 30000)
	ks, err := KiviatSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(cs) {
		t.Fatalf("got %d kiviat rows", len(ks))
	}
	// Each axis is normalized across the set: min 0, max 10.
	for axis := 0; axis < 5; axis++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, k := range ks {
			v := k.Axes[axis]
			if v < -1e-9 || v > KiviatScale+1e-9 {
				t.Errorf("axis %d value %v outside [0,10] for %s", axis, v, k.Name)
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo > 1e-9 || hi < KiviatScale-1e-9 {
			t.Errorf("axis %d not normalized: range [%v,%v]", axis, lo, hi)
		}
	}
}

func TestKiviatEmptySet(t *testing.T) {
	if _, err := KiviatSet(nil); err == nil {
		t.Error("accepted empty set")
	}
}

func TestFigure1IllustrativeShape(t *testing.T) {
	// Figure 1's Kiviat premise: α and β are more similar to each other
	// (differing only in working set) than either is to γ.
	var cs []workload.Characteristics
	for _, p := range workload.IllustrativeProfiles() {
		c, err := workload.Extract(p, 60000)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	ks, err := KiviatSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	// Distance over the non-working-set axes (B..E): α-β must be small,
	// both α-γ and β-γ larger.
	dist := func(a, b Kiviat) float64 {
		s := 0.0
		for i := 1; i < 5; i++ {
			d := a.Axes[i] - b.Axes[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	ab := dist(ks[0], ks[1])
	ag := dist(ks[0], ks[2])
	bg := dist(ks[1], ks[2])
	if ab >= ag || ab >= bg {
		t.Errorf("α-β distance %.2f should be smallest (α-γ %.2f, β-γ %.2f)", ab, ag, bg)
	}
}

func TestBzipGzipRawSimilarityPremise(t *testing.T) {
	// The setup of the paper's §5.3 pitfall: on raw characteristics the
	// two compressors look alike, so subsetting lets one represent the
	// other — even though their customized architectures differ sharply.
	// Concretely: gzip's nearest raw-characteristics neighbour must be
	// bzip, and their distance must sit well below the median pairwise
	// distance of the suite.
	cs := suiteCharacteristics(t, 40000)
	ks, err := KiviatSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]float64, len(ks))
	idx := map[string]int{}
	for i, k := range ks {
		features[i] = k.Axes[:]
		idx[k.Name] = i
	}
	d := DistanceMatrix(features)
	g, b := idx["gzip"], idx["bzip"]
	nearest, nd := -1, math.Inf(1)
	for j := range d[g] {
		if j != g && d[g][j] < nd {
			nearest, nd = j, d[g][j]
		}
	}
	if nearest != b {
		t.Errorf("gzip's nearest raw neighbour is %s (%.2f), want bzip (%.2f)",
			cs[nearest].Name, nd, d[g][b])
	}
	var all []float64
	for i := range d {
		for j := i + 1; j < len(d); j++ {
			all = append(all, d[i][j])
		}
	}
	sortFloats(all)
	median := all[len(all)/2]
	if d[g][b] >= median {
		t.Errorf("bzip-gzip distance %.2f not below median %.2f", d[g][b], median)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestDistanceMatrixSymmetricZeroDiagonal(t *testing.T) {
	f := [][]float64{{0, 0}, {1, 1}, {2, 0}}
	d := DistanceMatrix(f)
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("diagonal %d = %v", i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric at %d,%d", i, j)
			}
		}
	}
	if math.Abs(d[0][1]-math.Sqrt2) > 1e-12 {
		t.Errorf("d[0][1] = %v", d[0][1])
	}
}

func TestDendrogramKnownStructure(t *testing.T) {
	// Three points: 0 and 1 close together, 2 far away. The first merge
	// must join 0 and 1.
	d := DistanceMatrix([][]float64{{0}, {0.1}, {5}})
	for _, linkage := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		root, err := Dendrogram(d, linkage)
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := root.CutK(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) != 2 {
			t.Fatalf("%v: got %d clusters", linkage, len(clusters))
		}
		// One cluster must be exactly {0,1}.
		found := false
		for _, c := range clusters {
			if len(c) == 2 && c[0] == 0 && c[1] == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: clusters %v, want {0,1} together", linkage, clusters)
		}
	}
}

func TestDendrogramCutAt(t *testing.T) {
	d := DistanceMatrix([][]float64{{0}, {0.1}, {5}})
	root, err := Dendrogram(d, SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.CutAt(0.01); len(got) != 3 {
		t.Errorf("cut below all merges gives %d clusters, want 3", len(got))
	}
	if got := root.CutAt(10); len(got) != 1 {
		t.Errorf("cut above all merges gives %d clusters, want 1", len(got))
	}
	if got := root.CutAt(1); len(got) != 2 {
		t.Errorf("cut between merges gives %d clusters, want 2", len(got))
	}
}

func TestDendrogramErrors(t *testing.T) {
	if _, err := Dendrogram(nil, SingleLinkage); err == nil {
		t.Error("accepted empty matrix")
	}
	if _, err := Dendrogram([][]float64{{0, 1}}, SingleLinkage); err == nil {
		t.Error("accepted ragged matrix")
	}
	root, _ := Dendrogram(DistanceMatrix([][]float64{{0}, {1}}), SingleLinkage)
	if _, err := root.CutK(0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := root.CutK(3); err == nil {
		t.Error("accepted k beyond leaves")
	}
}

func TestRepresentativesAreMedoids(t *testing.T) {
	f := [][]float64{{0}, {1}, {2}, {10}}
	d := DistanceMatrix(f)
	reps := Representatives([][]int{{0, 1, 2}, {3}}, d)
	if reps[0] != 1 {
		t.Errorf("medoid of {0,1,2} = %d, want 1", reps[0])
	}
	if reps[1] != 3 {
		t.Errorf("medoid of {3} = %d", reps[1])
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	f := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {5, 5}, {5.1, 5}, {5, 5.1}}
	res, err := KMeans(f, 2, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Errorf("first cluster split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] || res.Assign[4] != res.Assign[5] {
		t.Errorf("second cluster split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Errorf("clusters merged: %v", res.Assign)
	}
	sets := ClusterSets(res.Assign, 2)
	if len(sets) != 2 {
		t.Errorf("ClusterSets = %v", sets)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 1, NormNone); err == nil {
		t.Error("accepted empty features")
	}
	if _, err := KMeans([][]float64{{1}}, 2, NormNone); err == nil {
		t.Error("accepted k > n")
	}
	if _, err := KMeans([][]float64{{1}, {2, 3}}, 1, NormNone); err == nil {
		t.Error("accepted ragged features")
	}
}

func TestKMeansNormalizationSensitivity(t *testing.T) {
	// The paper's criticism of clustering configurations (§2.2): the
	// outcome depends on how parameters are normalized. Construct
	// features where one raw dimension dominates: without normalization
	// the dominant column dictates clusters; with min-max the hidden
	// structure in the second column wins.
	f := [][]float64{
		{1000, 0.1}, {1001, 0.9}, {1002, 0.1}, {1003, 0.9},
	}
	raw, err := KMeans(f, 2, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := KMeans(f, 2, NormMinMax)
	if err != nil {
		t.Fatal(err)
	}
	// Under min-max, rows {0,2} and {1,3} pair by the second column.
	if mm.Assign[0] != mm.Assign[2] || mm.Assign[1] != mm.Assign[3] || mm.Assign[0] == mm.Assign[1] {
		t.Errorf("min-max clustering = %v, want {0,2} vs {1,3}", mm.Assign)
	}
	// Under no normalization, the 1000-scale column pairs {0,1} vs {2,3}.
	if raw.Assign[0] != raw.Assign[1] || raw.Assign[2] != raw.Assign[3] || raw.Assign[0] == raw.Assign[2] {
		t.Errorf("raw clustering = %v, want {0,1} vs {2,3}", raw.Assign)
	}
	same := true
	for i := range raw.Assign {
		if (raw.Assign[i] == raw.Assign[0]) != (mm.Assign[i] == mm.Assign[0]) {
			same = false
		}
	}
	if same {
		t.Error("normalization had no effect; the sensitivity the paper criticizes should be visible")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := make([][]float64, 20)
	for i := range f {
		f[i] = []float64{rng.Float64(), rng.Float64() * 10}
	}
	a, err := KMeans(f, 3, NormZScore)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(f, 3, NormZScore)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("k-means not deterministic")
		}
	}
}

// TestQuickKMeansInvariants checks assignment validity on random inputs.
func TestQuickKMeansInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		k := 1 + rng.Intn(4)
		if k > n {
			k = n
		}
		feats := make([][]float64, n)
		for i := range feats {
			feats[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 100}
		}
		res, err := KMeans(feats, k, Normalization(rng.Intn(3)))
		if err != nil {
			return false
		}
		if len(res.Assign) != n || len(res.Medoids) != k {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= k {
				return false
			}
		}
		// Every medoid belongs to its own cluster (or the cluster is
		// empty, marked -1).
		for ci, m := range res.Medoids {
			if m >= 0 && res.Assign[m] != ci {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDendrogramSuite(b *testing.B) {
	cs := suiteCharacteristics(b, 20000)
	ks, err := KiviatSet(cs)
	if err != nil {
		b.Fatal(err)
	}
	features := make([][]float64, len(ks))
	for i, k := range ks {
		features[i] = k.Axes[:]
	}
	d := DistanceMatrix(features)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dendrogram(d, AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}
