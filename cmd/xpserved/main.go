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
//	GET    /v1/status           this process's self-report (build, capacity, jobs, cache)
//	GET    /readyz              readiness: 503 on shutdown, a full backlog or a vanished -cache-dir
//	GET    /v1/cache/{key}      fleet cache: fetch one evaluation record
//	PUT    /v1/cache/{key}      fleet cache: store one evaluation record
//	POST   /v1/cache/lookup     fleet cache: batched multi-get
//	GET    /metrics             Prometheus metrics (engine + cache tiers + job gauges)
//	GET    /healthz, /buildinfo, /debug/pprof/...
//
// Each job's spans stream to its own event stream. -trace records the
// server's own spans — the cache handlers, which continue their callers'
// traces — as a span stream in the same format as every other tool's
// -trace file, written as each request completes.
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
		tracePath = flag.String("trace", "", "write the server's span stream (cache serves, continued client traces) to this file")
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
	// recorder whose stream carries this server's trace ID plus the trace
	// IDs of every client whose requests it served. A handler's span is a
	// root, so the file is flushed as each request completes.
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
		stream = tracing.NewStreamWriter(f, tracing.Meta{Tool: "xpserved", TraceID: rec.TraceID(), OriginUnixNs: rec.Origin()})
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
	// whose directory vanished flips /readyz — /healthz (liveness) stays
	// green throughout. Remote cache peers are never a readiness
	// dependency: the tier fails open to a miss.
	if ccfg.Dir != "" {
		dir := ccfg.Dir
		sched.SetReadinessProbes(xpserve.ReadyProbe{Name: "disk", Check: func() error {
			_, err := os.Stat(dir)
			return err
		}})
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
