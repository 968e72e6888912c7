// Command xptrace analyzes the span stream a run writes with -trace: one
// file holding the run's manifest, every annealing step, chain,
// evaluation and matrix row as a span with its results — CPI stacks and
// interval series included when the run armed -cpi or -intervals — and
// the engine's counters.
//
//	xptrace report TRACE
//	xptrace diff TRACE_A TRACE_B
//	xptrace export [-o out.json] TRACE
//	xptrace cpi TRACE
//	xptrace intervals TRACE
//
// report digests one run: annealing convergence per chain, the
// acceptance-rate curve over the search, the cache-effectiveness timeline,
// the run summary, and the per-phase self/total time breakdown.
//
// diff compares two runs span by span: manifest drift (differing
// configuration, ignoring observability-only flags), outcome drift (any
// annealing step, chain result, or matrix cell whose numbers differ), and
// the wall-time delta. Two runs of the same tool with the same seed must
// show zero outcome drift regardless of tracing flags — diff is the
// executable form of that claim. Exit status: 0 no drift, 2 drift, 1
// error.
//
// export converts one trace to Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto, one named thread per worker track.
//
// cpi renders the CPI-stack decomposition a -cpi run attached to its
// evaluation spans: one row per distinct simulation, every simulated
// cycle attributed to exactly one stall bucket.
//
// intervals renders the phase timeline a -intervals run attached to its
// evaluation spans: one table per simulated member, its cumulative kernel
// snapshots differenced into per-interval IPC, branch and cache behavior,
// and the dominant stall bucket of each window.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"xpscalar/internal/cli"
	"xpscalar/internal/tracing"
)

func main() {
	if err := (cli.LogConfig{}).Setup("xptrace"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	var (
		err   error
		drift bool
	)
	switch os.Args[1] {
	case "report":
		err = reportCmd(os.Args[2:])
	case "diff":
		drift, err = diffCmd(os.Args[2:])
	case "export":
		err = exportCmd(os.Args[2:])
	case "cpi":
		err = cpiCmd(os.Args[2:])
	case "intervals":
		err = intervalsCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		slog.Error(fmt.Sprintf("unknown subcommand %q", os.Args[1]))
		usage()
		os.Exit(1)
	}
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
	if drift {
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  xptrace report TRACE                   digest one run and its time breakdown
  xptrace diff TRACE_A TRACE_B           compare two runs (exit 2 on drift)
  xptrace export [-o out.json] TRACE     trace -> Chrome trace JSON
  xptrace cpi TRACE                      CPI-stack breakdown of a -cpi run
  xptrace intervals TRACE                phase timeline of an -intervals run
`)
}

// exportCmd converts one trace to Chrome trace-event JSON.
func exportCmd(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("export: want exactly one trace file, got %d args", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	meta, spans, err := tracing.ReadSpans(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
	}
	if err := tracing.WriteChromeTrace(w, meta.Tool, spans); err != nil {
		return err
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			return err
		}
		slog.Info("chrome trace written", "path", *out, "spans", len(spans))
	}
	return nil
}
