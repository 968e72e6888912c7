// Command xpserved serves the design-space exploration as a service: an
// HTTP/JSON job API (see internal/xpserve) over one shared evaluation
// session with an in-memory evaluation cache and, with -cache-dir, a
// content-addressed on-disk one. Every tenant's jobs share the cache, so
// work any client has paid for is never simulated again, across jobs and
// (with -cache-dir) across server restarts. The directory's pack is the
// one way to share that work with other processes: batch tools pointed at
// the same -cache-dir read and extend it, and the pack file can be copied
// to another machine.
//
// Usage:
//
//	xpserved [-addr host:port] [-addr-file file] [-cache-dir dir]
//	         [-max-jobs n] [-backlog n] [-log-level l] [-log-format text|json]
//
// API:
//
//	POST   /v1/jobs             submit a job: {"kind": "explore"|"matrix"|"subsetting", ...}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status (+ result once done)
//	GET    /v1/jobs/{id}/events tail the job's span stream (curl -N)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /readyz              readiness: 503 on shutdown, a full backlog or a lost -cache-dir pack
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
// Each job's spans stream to its own event stream, in the same format as
// every other tool's -trace file.
//
// SIGINT/SIGTERM shuts down gracefully: in-flight jobs are cancelled,
// their clients' event streams end, and the disk tier is flushed before
// the process exits. -addr-file writes the bound address (useful
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
	"xpscalar/internal/evalstore"
	"xpscalar/internal/session"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/xpserve"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(ctx context.Context) error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file once serving")
		maxJobs  = flag.Int("max-jobs", 2, "jobs running concurrently")
		backlog  = flag.Int("backlog", 16, "queued jobs accepted beyond the running ones")
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
	sess := session.New(session.Options{
		Engine: evalengine.Options{Backend: backend},
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
	if disk, ok := backend.(*evalstore.Store); ok {
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
	srv := &http.Server{Handler: sched.Handler(reg), ReadHeaderTimeout: 5 * time.Second}
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
