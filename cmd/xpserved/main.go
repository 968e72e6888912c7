// Command xpserved serves the design-space exploration as a service: an
// HTTP/JSON job API (see internal/xpserve) over one shared evaluation
// session with a tiered — in-memory plus content-addressed on-disk —
// evaluation cache. Every tenant's jobs share the cache, so work any
// client has paid for is never simulated again, across jobs and (with
// -cache-dir) across server restarts.
//
// xpserved is also a cache PEER: it mounts the fleet cache routes
// (internal/evalremote) beside the job API, serving its memory and disk
// tiers to other processes started with -cache-peers, and with
// -cache-peers of its own it joins a fleet, pulling evaluations other
// peers own and pushing the ones it computes.
//
// Usage:
//
//	xpserved [-addr host:port] [-addr-file file] [-cache-dir dir]
//	         [-cache-peers urls] [-max-jobs n] [-backlog n]
//	         [-trace file] [-log-level l] [-log-format text|json]
//
// API:
//
//	POST   /v1/jobs             submit a job: {"kind": "explore"|"matrix"|"subsetting", ...}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status (+ result once done)
//	GET    /v1/jobs/{id}/events tail the job's span stream (curl -N)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /readyz              readiness: 503 on shutdown, a full backlog or a lost -cache-dir pack
//	GET    /v1/cache/{key}      fleet cache: fetch one evaluation record
//	PUT    /v1/cache/{key}      fleet cache: store one evaluation record
//	POST   /v1/cache/lookup     fleet cache: batched multi-get
//	GET    /metrics             Prometheus metrics (engine + cache tiers + job gauges)
//	GET    /metrics.json        the same metrics as one JSON object
//	GET    /buildinfo           module, Go version and VCS revision of this build
//	GET    /healthz, /debug/pprof/...
//
// /metrics and /buildinfo are the operator's view of one xpserved: its
// job census and backlog headroom (xpserved_jobs_*,
// xpserved_backlog_headroom), its evaluation cache (xpscalar_eval_*) and
// the build it runs.
//
// Each job's spans stream to its own event stream. -trace records the
// server's own spans — one root span per cache-handler invocation — as a
// span stream in the same format as every other tool's -trace file,
// written as each request completes.
//
// SIGINT/SIGTERM shuts down gracefully: in-flight jobs are cancelled,
// their clients' event streams end, and the persistent tiers are flushed
// before the process exits. -addr-file writes the bound address (useful
// with -addr 127.0.0.1:0) for scripts and tests.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"xpscalar/internal/cli"
	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/session"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
	"xpscalar/internal/xpserve"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound listen address to this file once serving")
		maxJobs   = flag.Int("max-jobs", 2, "jobs running concurrently")
		backlog   = flag.Int("backlog", 16, "queued jobs accepted beyond the running ones")
		tracePath = flag.String("trace", "", "write the server's span stream (its cache serves) to this file")
	)
	var rcfg cli.RunConfig
	rcfg.RegisterFlags()
	var ccfg cli.CacheConfig
	ccfg.RegisterFlags()
	var lcfg cli.LogConfig
	lcfg.RegisterFlags()
	flag.Parse()
	if err := lcfg.Setup("xpserved"); err != nil {
		return err
	}

	ctx, stop := rcfg.Context(ctx)
	defer stop()

	backend, err := ccfg.Open()
	if err != nil {
		return err
	}
	// With -trace, every cache handler records into one process-wide
	// recorder. A handler's span is a root, so the file is flushed as each
	// request completes.
	var rec *tracing.Recorder
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		var stream *tracing.StreamWriter
		rec = tracing.NewRecorderFunc(func(s tracing.Span) {
			stream.Write(s)
			if s.Parent == 0 {
				stream.Flush()
			}
		})
		stream = tracing.NewStreamWriter(f, tracing.Meta{Tool: "xpserved", TraceID: tracing.NewTraceID()})
		defer func() {
			n := stream.Len()
			if err := stream.Close(); err != nil {
				slog.Error("trace close", "err", err)
				return
			}
			slog.Info("trace written", "spans", n, "path", *tracePath)
		}()
		// The header goes out at once, so the file is a valid stream from
		// the start; a write error is sticky and reported by Close.
		stream.Flush()
	}
	sess := session.New(session.Options{
		Engine:   evalengine.Options{Backend: backend},
		Recorder: rec,
	})
	// Last out: by the time this runs the scheduler has drained, so every
	// evaluation any job computed is flushed to the disk tier.
	defer func() {
		if cerr := sess.Close(); cerr != nil {
			slog.Error("cache store close", "err", cerr)
		}
	}()

	reg := telemetry.NewRegistry()
	sess.EnableTelemetry(reg)
	sched := xpserve.New(sess, xpserve.Options{MaxJobs: *maxJobs, Backlog: *backlog})
	sched.EnableTelemetry(reg)

	// Readiness: beyond the scheduler's own admission state, a disk tier
	// whose pack vanished or was replaced (its directory with it, or the
	// file alone) flips /readyz: its appends would go to a file the next
	// start never reads. /healthz (liveness) stays green throughout.
	// Remote cache peers are never a readiness dependency: the tier fails
	// open to a miss.
	if disk, ok := ccfg.Disk().(*evalstore.Store); ok {
		sched.SetReadinessProbes(xpserve.ReadyProbe{Name: "disk", Check: disk.CheckPack})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o666); err != nil {
			ln.Close()
			return err
		}
	}
	// The cache routes serve this process's LOCAL tiers only (memory LRU
	// + its own disk store): handing them the full backend chain would
	// let fleet peers proxy-loop through each other.
	mux := http.NewServeMux()
	evalremote.Register(mux, evalremote.EngineSource{Engine: sess.Engine(), Disk: ccfg.Disk()}, rec)
	mux.Handle("/", sched.Handler(reg))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	slog.Info("xpserved serving", "addr", ln.Addr().String(),
		"max_jobs", *maxJobs, "backlog", *backlog, "cache_dir", ccfg.Dir)

	select {
	case <-ctx.Done():
		slog.Info("shutting down", "reason", ctx.Err())
		// Cancel the jobs first: that ends the event streams, so the
		// server's graceful Shutdown isn't held open by tailing clients.
		sched.Shutdown()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return err
		}
		slog.Info("drained", "stats", sess.Stats().String())
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
