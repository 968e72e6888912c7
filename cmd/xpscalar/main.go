// Command xpscalar runs the design-space exploration: a simulated-annealing
// search for the customized architectural configuration of each synthetic
// SPEC2000-like workload (regenerating the paper's Table 4), followed by a
// cross-seeding round, printing the configurational characteristics and the
// achieved IPT per workload.
//
// Usage:
//
//	xpscalar [-workload name] [-iterations n] [-chains n] [-short n] [-long n] [-seed n]
//	         [-neighborhood k] [-timeout d] [-evalstats]
//	         [-cache-dir dir] [-trace file]
//	         [-progress] [-log-level l] [-log-format text|json]
//	         [-cpuprofile file] [-memprofile file]
//
// The Table 4 analogue goes to stdout; diagnostics (wall time, -evalstats,
// -progress) go to stderr. -trace writes the run's span stream for
// cmd/xptrace — every annealing step, evaluation and chain as it ends,
// framed by the run manifest and the engine's counters — and -progress
// follows the search live; -cpuprofile profiles it.
//
// Every simulation runs as a lockstep group over one shared replay of the
// workload's instruction stream: cache-missing evaluations submitted
// together share one group, and a lone miss is a group of one.
// -neighborhood k with k >= 2 widens each annealing step to a best-of-k
// proposal evaluated as one batch — a different (often better) search
// trajectory, so it changes the outcomes.
//
// -cache-dir dir persists every evaluation to a content-addressed store in
// dir; a rerun (same flags, same seed) over the same directory replays
// from disk instead of simulating, bit-identically — check with -evalstats
// (sims drop to zero) or xptrace diff (clean against the cold run).
// Processes running at once may share one directory, and the directory's
// pack file (xpeval-record-v2.pack) carries the work to another machine:
// copy it, or cat several packs into one.
//
// The run is interruptible: Ctrl-C (or -timeout expiry) stops the search
// at the next annealing iteration, prints the outcomes of the workloads
// that completed, saves them when -save is set, flushes the trace, and
// exits with status 130 (interrupt) or 124 (timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"xpscalar/internal/cli"
	"xpscalar/internal/evalengine"
	"xpscalar/internal/explore"
	"xpscalar/internal/power"
	"xpscalar/internal/report"
	"xpscalar/internal/session"
	"xpscalar/internal/store"
	"xpscalar/internal/workload"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		only       = flag.String("workload", "", "explore a single workload (default: whole suite)")
		iters      = flag.Int("iterations", 300, "annealing iterations per chain")
		chains     = flag.Int("chains", 4, "parallel annealing chains per workload")
		short      = flag.Int("short", 20000, "instructions per evaluation, early phase")
		long       = flag.Int("long", 60000, "instructions per evaluation, refinement phase")
		seed       = flag.Int64("seed", 42, "exploration seed")
		obj        = flag.String("objective", "ipt", "exploration objective: ipt|ipt-per-watt|edp|ed2p")
		save       = flag.String("save", "", "write outcomes to this JSON file")
		neighbors  = flag.Int("neighborhood", 1, "candidate moves per annealing step; >=2 evaluates each step's neighborhood as one lockstep batch")
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
	if err := lcfg.Setup("xpscalar"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	backend, err := ccfg.Open()
	if err != nil {
		return err
	}
	sess := session.New(session.Options{
		Engine: evalengine.Options{Backend: backend},
	})
	tel, err := cli.StartTelemetry("xpscalar", sess, tcfg)
	defer func() {
		if cerr := tel.Close(); cerr != nil {
			slog.Error(cerr.Error())
		}
	}()
	if err != nil {
		return err
	}
	ctx = tel.Context(ctx)

	stopProfiles, perr := cli.StartProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		return perr
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			slog.Error(perr.Error())
		}
	}()

	opt := explore.DefaultOptions(*seed)
	opt.Iterations = *iters
	opt.Chains = *chains
	opt.ShortBudget = *short
	opt.LongBudget = *long
	opt.NeighborhoodK = *neighbors
	switch *obj {
	case "ipt":
		opt.Objective = power.ObjIPT
	case "ipt-per-watt":
		opt.Objective = power.ObjIPTPerWatt
	case "edp":
		opt.Objective = power.ObjInverseEDP
	case "ed2p":
		opt.Objective = power.ObjInverseED2P
	default:
		return fmt.Errorf("unknown -objective %q", *obj)
	}

	profiles := workload.Suite()
	if *only != "" {
		p, ok := workload.ByName(*only)
		if !ok {
			return fmt.Errorf("unknown workload %q", *only)
		}
		profiles = []workload.Profile{p}
	}

	start := time.Now()
	outs, runErr := sess.ExploreSuite(ctx, profiles, opt)
	interrupted := runErr != nil &&
		(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !interrupted {
		return runErr
	}

	tab := &report.Table{Header: []string{
		"workload", "IPT", "clock(ns)", "GHz", "width", "fe", "rob", "iq", "lsq",
		"sched", "wake", "L1D", "L1lat", "L2", "L2lat", "mem", "evals",
	}}
	for _, o := range outs {
		c := o.Best
		tab.AddRow(
			o.Workload,
			fmt.Sprintf("%.3f", o.BestIPT),
			fmt.Sprintf("%.2f", c.ClockNs),
			fmt.Sprintf("%.2f", c.FrequencyGHz()),
			fmt.Sprint(c.Width),
			fmt.Sprint(c.FrontEndStages),
			fmt.Sprint(c.ROBSize),
			fmt.Sprint(c.IQSize),
			fmt.Sprint(c.LSQSize),
			fmt.Sprint(c.SchedDepth),
			fmt.Sprint(c.WakeupMinLat),
			c.L1D.String(),
			fmt.Sprint(c.L1DLat),
			c.L2.String(),
			fmt.Sprint(c.L2Lat),
			fmt.Sprint(c.MemCycles),
			fmt.Sprint(o.Evaluations),
		)
	}
	if len(outs) > 0 {
		fmt.Println("Customized architectural configurations (Table 4 analogue)")
		if err := tab.Write(os.Stdout); err != nil {
			return err
		}
	}
	slog.Info("exploration finished", "wall", time.Since(start).Round(time.Second).String())
	if interrupted {
		slog.Warn(fmt.Sprintf("interrupted (%v)", runErr), "completed", len(outs), "total", len(profiles))
	}
	if *evalstats || interrupted {
		slog.Info("evaluation engine", "stats", sess.Stats().String())
	}

	if *save != "" && len(outs) > 0 {
		if err := store.SaveOutcomes(*save, outs); err != nil {
			return err
		}
		slog.Info("outcomes saved", "path", *save, "workloads", len(outs))
	}
	// A nil runErr means success; a context error surfaces as exit status
	// 130 (interrupt) or 124 (timeout) after the deferred telemetry flush.
	return runErr
}
