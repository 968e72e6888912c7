// Command xptrace analyzes the span stream a run writes with -trace: one
// file holding the run's manifest, every annealing step, chain,
// evaluation and matrix row as a span with its results — CPI stacks and
// interval series included when the run armed -cpi or -intervals — and
// the engine's counters.
//
//	xptrace report TRACE [TRACE ...]
//	xptrace diff TRACE_A TRACE_B
//	xptrace export [-o out.json] TRACE [TRACE ...]
//	xptrace cpi TRACE
//	xptrace intervals TRACE
//
// report digests one run: annealing convergence per chain, the
// acceptance-rate curve over the search, the cache-effectiveness timeline,
// the run summary, and the per-phase self/total time breakdown — of the
// first trace and of every further one given (say, the -trace files of the
// xpserved peers that served the run).
//
// diff compares two runs span by span: manifest drift (differing
// configuration, ignoring observability-only flags), outcome drift (any
// annealing step, chain result, or matrix cell whose numbers differ), and
// the wall-time delta. Two runs of the same tool with the same seed must
// show zero outcome drift regardless of tracing flags — diff is the
// executable form of that claim. Exit status: 0 no drift, 2 drift, 1
// error.
//
// export converts one or more traces to Chrome trace-event JSON loadable
// in chrome://tracing or Perfetto, one named thread per worker track.
// Given several — say a client's -trace file and the -trace file of the
// xpserved peer that served it — export stitches them into ONE trace:
// each process gets its own track group, and spans that continued another
// process's trace (remote cache serves) are joined to their cross-process
// parent with flow arrows.
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
  xptrace report TRACE [TRACE...]            digest one run, time breakdown per trace
  xptrace diff TRACE_A TRACE_B               compare two runs (exit 2 on drift)
  xptrace export [-o out.json] TRACE [...]   trace(s) -> one Chrome trace JSON
  xptrace cpi TRACE                          CPI-stack breakdown of a -cpi run
  xptrace intervals TRACE                    phase timeline of an -intervals run
`)
}

// exportCmd converts one or more traces to Chrome trace-event JSON. One stream takes the single-process path unchanged; several are
// stitched by trace ID into one multi-process trace, a track group per
// stream in argument order.
func exportCmd(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("export: want one or more trace files")
	}
	streams, err := loadStreams(fs.Args())
	if err != nil {
		return err
	}
	total := 0
	for _, s := range streams {
		total += len(s.Spans)
	}
	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
	}
	if len(streams) == 1 {
		err = tracing.WriteChromeTrace(w, streams[0].Meta.Tool, streams[0].Spans)
	} else {
		err = tracing.WriteChromeTraceMerged(w, streams)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			return err
		}
		slog.Info("chrome trace written", "path", *out, "streams", len(streams), "spans", total)
	}
	return nil
}

// loadStreams reads trace files in argument order.
func loadStreams(paths []string) ([]tracing.Stream, error) {
	streams := make([]tracing.Stream, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		meta, spans, err := tracing.ReadSpans(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		streams = append(streams, tracing.Stream{Meta: meta, Spans: spans})
	}
	return streams, nil
}
