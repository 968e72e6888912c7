// Command crossconf prints the cross-configuration performance matrix
// (Table 5) and the derived percentage-slowdown matrix (Appendix A), either
// from the paper's published data or regenerated end-to-end by exploring
// the synthetic suite and simulating every workload on every customized
// configuration. It is the one tool that makes a matrix: -savematrix
// writes it for the analysis tools (combos, surrogate, mtsim, xpviz),
// which read it with -source file:<path>.
//
// Usage:
//
//	crossconf [-source paper|sim|file:path|outcomes:path] [-slowdown] [-mark none|forward|full]
//	          [-n instr] [-iterations n] [-seed n] [-savematrix file]
//	          [-timeout d] [-evalstats] [-cache-dir dir] [-trace file] [-progress]
//	          [-cpuprofile file] [-memprofile file]
//
// Matrices go to stdout; diagnostics go to stderr. With -source sim, -trace
// records the regeneration pipeline as one span stream (annealing steps,
// evaluations, matrix rows), -progress follows it live and -cpuprofile
// profiles it. Each matrix row — every customized configuration against
// one workload — is simulated as one lockstep group over a single replay
// of that workload's stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/core"
	"xpscalar/internal/evalengine"
	"xpscalar/internal/report"
	"xpscalar/internal/session"
	"xpscalar/internal/store"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		source     = flag.String("source", "paper", "matrix source: paper (published Table 5), sim (regenerate), file:<path> (a -savematrix file) or outcomes:<path> (cross-simulate an xpscalar -save file)")
		slowdown   = flag.Bool("slowdown", false, "print the Appendix A percentage-slowdown matrix")
		mark       = flag.String("mark", "", "star the links of a surrogate policy: none|forward|full")
		n          = flag.Int("n", 60000, "instructions per cross-configuration evaluation (sim source)")
		iters      = flag.Int("iterations", 200, "annealing iterations (sim source)")
		seed       = flag.Int64("seed", 42, "seed (sim source)")
		saveM      = flag.String("savematrix", "", "write the matrix to this JSON file")
		evalstats  = flag.Bool("evalstats", false, "print evaluation-engine cache counters after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	var rcfg cli.RunConfig
	rcfg.RegisterFlags()
	var tcfg cli.TelemetryConfig
	tcfg.RegisterFlags()
	var ccfg cli.CacheConfig
	ccfg.RegisterFlags()
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("crossconf"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			slog.Error(perr.Error())
		}
	}()

	backend, err := ccfg.Open()
	if err != nil {
		return err
	}
	sess := session.New(session.Options{
		Engine: evalengine.Options{Backend: backend},
	})
	tel, err := cli.StartTelemetry("crossconf", sess, tcfg)
	defer func() {
		if cerr := tel.Close(); cerr != nil {
			slog.Error(cerr.Error())
		}
	}()
	if err != nil {
		return err
	}
	ctx = tel.Context(ctx)

	m, err := cli.LoadMatrix(ctx, *source, cli.MatrixOptions{
		Instructions: *n, Iterations: *iters, Seed: *seed, Session: sess,
	})
	if err != nil {
		return err
	}
	if *saveM != "" {
		if err := store.SaveMatrix(*saveM, m); err != nil {
			return err
		}
	}

	if *slowdown {
		var g *core.SurrogateGraph
		if *mark != "" {
			policy, err := cli.ParsePolicy(*mark)
			if err != nil {
				return err
			}
			if g, err = core.GreedySurrogates(m, policy, nil); err != nil {
				return err
			}
		}
		fmt.Println("Percentage slowdown on other benchmarks' customized cores (Appendix A)")
		if err := report.SlowdownMatrix(os.Stdout, m, g); err != nil {
			return err
		}
	} else {
		fmt.Println("Cross-configuration IPT matrix (Table 5): rows = workloads, columns = architectures")
		if err := report.CrossMatrix(os.Stdout, m); err != nil {
			return err
		}
	}
	if *evalstats {
		slog.Info("evaluation engine", "stats", sess.Stats().String())
	}
	return nil
}
