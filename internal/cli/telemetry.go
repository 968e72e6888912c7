// Telemetry wiring for the two tools that simulate, xpscalar and
// crossconf. Both register the same flags — -trace for the run's span
// stream (the xptrace input), -progress for per-workload search progress
// on stderr, and the introspection knobs -cpi and -intervals — and funnel
// them through StartTelemetry, which connects them to the session. The
// span stream is the run's one record: the header carries the manifest,
// every span is written as it ends, and the run span, ending last, carries
// the engine's counters. All of it is opt-in: with no flags set,
// StartTelemetry returns a *Telemetry whose every method is a cheap no-op
// and the instrumented hot paths stay at their uninstrumented cost.

package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"

	"xpscalar/internal/session"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
)

// TelemetryConfig carries the observability flags of a simulating tool.
type TelemetryConfig struct {
	// TracePath is the span-stream file ("" for none); analyze or export
	// it with cmd/xptrace.
	TracePath string
	// Progress renders search progress to stderr.
	Progress bool
	// CPI arms CPI-stack cycle accounting on every uncached simulation;
	// evaluation spans then carry per-bucket cycle breakdowns.
	CPI bool
	// Intervals is the interval-sampling period in committed instructions
	// (0 for none; implies CPI accounting): each simulated member of the
	// trace's evaluation spans carries its snapshot series; analyze with
	// xptrace intervals. It needs TracePath.
	Intervals int
}

// RegisterFlags registers -trace, -progress, -cpi and -intervals on the
// default flag set, pointing at this config.
func (c *TelemetryConfig) RegisterFlags() {
	flag.StringVar(&c.TracePath, "trace", "", "write the run's span stream to this file (analyze with xptrace)")
	flag.BoolVar(&c.Progress, "progress", false, "report search progress to stderr")
	flag.BoolVar(&c.CPI, "cpi", false, "attribute every simulated cycle to a CPI-stack bucket (analyze with xptrace cpi)")
	flag.IntVar(&c.Intervals, "intervals", 0, "record an interval snapshot every N committed instructions on the -trace evaluation spans (0 off; implies -cpi; analyze with xptrace intervals)")
}

// Telemetry is one run's observability session: the span recorder and
// its consumers (the -trace stream, the -progress renderer). A nil
// *Telemetry is valid and inert, as is one started with an all-zero
// config.
type Telemetry struct {
	sess     *session.Session
	tool     string
	rec      *tracing.Recorder
	stream   *tracing.StreamWriter
	progress *progressRenderer
	root     tracing.Handle
	runSpan  tracing.Span
	introOn  bool
}

// StartTelemetry opens the trace stream and progress renderer requested by
// cfg and arms sess's introspection when -cpi or -intervals asks for it.
// sess is required. The caller must Close the returned Telemetry when the
// run ends; it is never nil, even on error.
func StartTelemetry(tool string, sess *session.Session, cfg TelemetryConfig) (*Telemetry, error) {
	t := &Telemetry{sess: sess, tool: tool}
	if cfg.Intervals < 0 {
		return t, fmt.Errorf("-intervals %d: want a sampling period in committed instructions, or 0 for off", cfg.Intervals)
	}
	if cfg.Intervals > 0 && cfg.TracePath == "" {
		return t, fmt.Errorf("-intervals needs -trace: interval series are recorded on the trace's evaluation spans")
	}
	if cfg.CPI || cfg.Intervals > 0 {
		t.introOn = true
		sess.EnableIntrospection(cfg.Intervals)
	}
	if cfg.TracePath != "" || cfg.Progress {
		// Spans are recorded only for consumers that want them, and handed
		// to them as they end: nothing is buffered for the run's length.
		t.rec = tracing.NewRecorderFunc(t.consume)
		if cfg.Progress {
			t.progress = newProgressRenderer(os.Stderr)
		}
	}
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			t.Close()
			return t, fmt.Errorf("trace: %w", err)
		}
		t.stream = tracing.NewStreamWriter(f, tracing.Meta{
			Tool: tool, TraceID: tracing.NewTraceID(), Manifest: manifest(),
		})
	}
	return t, nil
}

// consume hands one ended span to the run's consumers.
func (t *Telemetry) consume(s tracing.Span) {
	if t.stream != nil {
		t.stream.Write(s)
	}
	if t.progress != nil {
		t.progress.render(s)
	}
}

// Context attaches the run's span recorder to ctx and opens the root run
// span, under which every span the instrumented layers emit will nest.
// With neither -trace nor -progress set it returns ctx unchanged. Call it
// once, right after StartTelemetry, and pass the returned context to the
// run.
func (t *Telemetry) Context(ctx context.Context) context.Context {
	if t == nil || t.rec == nil {
		return ctx
	}
	ctx = tracing.NewContext(ctx, t.rec)
	t.root = tracing.FromContext(ctx)
	t.runSpan = t.root.Begin(tracing.KindRun, t.tool, 0)
	return tracing.ChildContext(ctx, t.runSpan)
}

// manifest captures what this run is: its effective flag values, the
// build, and the technology parameters every simulation shares.
func manifest() *tracing.Manifest {
	m := &tracing.Manifest{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Flags:     map[string]string{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
	}
	flag.VisitAll(func(f *flag.Flag) {
		m.Flags[f.Name] = f.Value.String()
		if f.Name == "seed" {
			if v, err := strconv.ParseInt(f.Value.String(), 10, 64); err == nil {
				m.Seed = v
			}
		}
	})
	tp := tech.Default()
	m.Tech = map[string]float64{
		"memory_latency_ns":    tp.MemoryLatencyNs,
		"front_end_latency_ns": tp.FrontEndLatencyNs,
		"iq_entry_bytes":       float64(tp.IQEntryBytes),
		"latch_latency_ns":     tp.LatchLatencyNs,
		"fo4_ns":               tp.FO4Ns,
		"wire_ns_per_mm":       tp.WireNsPerMm,
		"bit_area_mm2":         tp.BitAreaMm2,
	}
	return m
}

// Close ends the run span with the engine's counters — the stream's last
// line — closes the stream, and closes the session, flushing its
// persistent cache tier, when one is configured, so every evaluation the
// run paid for is durable before the process exits.
// Safe on a nil or inert Telemetry, and safe to call on the interrupt
// path: everything buffered is flushed before the process decides its
// exit code.
func (t *Telemetry) Close() (firstErr error) {
	if t == nil {
		return nil
	}
	defer func() {
		if err := t.sess.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cache store: %w", err)
		}
	}()
	if t.rec != nil {
		if t.runSpan.ID != 0 {
			s := t.sess.Stats()
			t.runSpan.Attrs = &tracing.RunAttrs{
				Requests:        s.Requests,
				Hits:            s.Hits,
				Deduped:         s.Deduped,
				Misses:          s.Misses,
				Evictions:       s.Evictions,
				CacheEntries:    s.CacheEntries,
				LockstepGroups:  s.LockstepGroups,
				LockstepLanes:   s.LockstepLanes,
				ScalarFallbacks: s.ScalarFallbacks,
				DiskHits:        s.DiskHits,
				DiskMisses:      s.DiskMisses,
			}
			t.root.End(t.runSpan)
		}
		if t.stream != nil {
			n := t.stream.Len()
			if err := t.stream.Close(); err != nil {
				firstErr = fmt.Errorf("trace: %w", err)
			} else {
				slog.Info("trace written", "spans", n)
			}
		}
		t.rec, t.stream = nil, nil
	}
	if t.introOn {
		t.sess.DisableIntrospection()
		t.introOn = false
	}
	return firstErr
}
