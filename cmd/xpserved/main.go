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
//	         [-spans file] [-log-level l] [-log-format text|json]
//
// API:
//
//	POST   /v1/jobs             submit a job: {"kind": "explore"|"matrix"|"subsetting", ...}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status (+ result once done)
//	GET    /v1/jobs/{id}/events tail the job's JSONL telemetry (curl -N)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/cache/{key}      fleet cache: fetch one evaluation record
//	PUT    /v1/cache/{key}      fleet cache: store one evaluation record
//	POST   /v1/cache/lookup     fleet cache: batched multi-get
//	GET    /metrics             Prometheus metrics (engine + cache tiers + job gauges)
//	GET    /healthz, /buildinfo, /debug/pprof/...
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
	"fmt"
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
		spansPath = flag.String("spans", "", "record execution spans (jobs, cache serves, continued client traces) to this file on shutdown")
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
	// With -spans, every handler and job records into one process-wide
	// recorder; its stream (written on shutdown) carries this server's
	// trace ID plus the trace IDs of every client whose requests it served.
	var rec *tracing.Recorder
	if *spansPath != "" {
		rec = tracing.NewRecorder()
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
	// whose directory vanished or a fleet whose peers have ALL tripped the
	// breaker flips /readyz — /healthz (liveness) stays green throughout.
	var probes []xpserve.ReadyProbe
	if ccfg.Dir != "" {
		dir := ccfg.Dir
		probes = append(probes, xpserve.ReadyProbe{Name: "disk", Check: func() error {
			_, err := os.Stat(dir)
			return err
		}})
	}
	if rc := ccfg.Remote(); rc != nil {
		probes = append(probes, xpserve.ReadyProbe{Name: "remote", Check: func() error {
			down, total := rc.Down()
			if total > 0 && down == total {
				return fmt.Errorf("all %d cache peers down", total)
			}
			return nil
		}})
	}
	sched.SetReadinessProbes(probes...)

	// The fleet poller watches the same peer set the cache shards over.
	if peers := ccfg.PeerList(); len(peers) > 0 {
		fleet := xpserve.NewFleet(sched, peers, xpserve.FleetOptions{})
		sched.SetFleet(fleet)
		fleet.EnableTelemetry(reg)
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
		if rec != nil {
			if err := writeSpans(*spansPath, rec); err != nil {
				return err
			}
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

// writeSpans flushes the server's span stream, headed by its trace ID and
// time origin so multi-process exports can stitch it with client streams.
func writeSpans(path string, rec *tracing.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := rec.Spans()
	meta := tracing.Meta{Tool: "xpserved", TraceID: rec.TraceID(), OriginUnixNs: rec.Origin()}
	if err := tracing.WriteSpansMeta(f, meta, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	slog.Info("spans written", "spans", len(spans), "path", path)
	return nil
}
