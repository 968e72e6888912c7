// Command subsetting runs the conventional workload-subsetting baseline:
// it extracts microarchitecture-independent characteristics from the
// synthetic suite, renders their Kiviat vectors (Figure 1), clusters them
// into a dendrogram, and — for contrast — clusters the paper's published
// customized configurations with k-means under selectable normalization
// (the Lee & Brooks-style approach whose normalization sensitivity the
// paper criticizes).
//
// Usage:
//
//	subsetting [-kiviat] [-dendrogram] [-kmeans k] [-norm none|minmax|zscore] [-n instr]
//
// Reports go to stdout; diagnostics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"xpscalar/internal/cli"
	"xpscalar/internal/report"
	"xpscalar/internal/sim"
	"xpscalar/internal/subsetting"
	"xpscalar/internal/workload"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(context.Context) error {
	var (
		kiviat = flag.Bool("kiviat", false, "print Kiviat vectors of the Figure 1 illustrative workloads and the suite")
		dendro = flag.Bool("dendrogram", false, "print the raw-characteristics dendrogram of the suite")
		kmeans = flag.Int("kmeans", 0, "k-means over the paper's Table 4 configuration vectors with this k")
		norm   = flag.String("norm", "minmax", "k-means normalization: none|minmax|zscore")
		n      = flag.Int("n", 50000, "instructions per characteristic extraction")
	)
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("subsetting"); err != nil {
		return err
	}
	if !*kiviat && !*dendro && *kmeans == 0 {
		*kiviat, *dendro = true, true
	}

	if *kiviat {
		fmt.Println("Illustrative workloads α, β, γ (Figure 1)")
		if err := printKiviats(workload.IllustrativeProfiles(), *n); err != nil {
			return err
		}
		fmt.Println("\nSynthetic SPEC2000 suite")
		if err := printKiviats(workload.Suite(), *n); err != nil {
			return err
		}
	}

	if *dendro {
		fmt.Println("\nRaw-characteristics dendrogram (average linkage)")
		cs, err := extract(workload.Suite(), *n)
		if err != nil {
			return err
		}
		ks, err := subsetting.KiviatSet(cs)
		if err != nil {
			return err
		}
		features := make([][]float64, len(ks))
		names := make([]string, len(ks))
		for i, k := range ks {
			features[i] = k.Axes[:]
			names[i] = k.Name
		}
		root, err := subsetting.Dendrogram(subsetting.DistanceMatrix(features), subsetting.AverageLinkage)
		if err != nil {
			return err
		}
		if err := report.Dendrogram(os.Stdout, root, names); err != nil {
			return err
		}
	}

	if *kmeans > 0 {
		normalization := map[string]subsetting.Normalization{
			"none": subsetting.NormNone, "minmax": subsetting.NormMinMax, "zscore": subsetting.NormZScore,
		}[*norm]
		fmt.Printf("\nK-means over published Table 4 configuration vectors (k=%d, %s normalization)\n", *kmeans, *norm)
		configs, names := paperConfigVectors()
		res, err := subsetting.KMeans(configs, *kmeans, normalization)
		if err != nil {
			return err
		}
		for ci, set := range subsetting.ClusterSets(res.Assign, *kmeans) {
			var members []string
			for _, i := range set {
				members = append(members, names[i])
			}
			fmt.Printf("  cluster %d: %s\n", ci+1, strings.Join(members, ", "))
		}
	}
	return nil
}

func extract(profiles []workload.Profile, n int) ([]workload.Characteristics, error) {
	var cs []workload.Characteristics
	for _, p := range profiles {
		c, err := workload.Extract(p, n)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func printKiviats(profiles []workload.Profile, n int) error {
	cs, err := extract(profiles, n)
	if err != nil {
		return err
	}
	ks, err := subsetting.KiviatSet(cs)
	if err != nil {
		return err
	}
	for _, k := range ks {
		if err := report.Kiviat(os.Stdout, k); err != nil {
			return err
		}
	}
	return nil
}

// paperConfigVectors converts the published Table 4 configurations to
// feature vectors via the sim.Config encoding.
func paperConfigVectors() ([][]float64, []string) {
	// Import the published configurations through paperdata-equivalent
	// sim configs: reuse sim.Config.Vector's encoding with the published
	// parameters.
	var vectors [][]float64
	var names []string
	for _, o := range paperConfigs() {
		vectors = append(vectors, o.Vector())
		names = append(names, o.name)
	}
	return vectors, names
}

type namedConfig struct {
	sim.Config
	name string
}

func paperConfigs() []namedConfig {
	var out []namedConfig
	for _, c := range cli.PaperTable4Configs() {
		out = append(out, namedConfig{Config: c.Config, name: c.Name})
	}
	return out
}
