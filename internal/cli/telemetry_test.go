package cli

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"xpscalar/internal/session"
	"xpscalar/internal/tracing"
)

// -intervals is a sampling period whose records ride the -trace stream:
// a negative period, or a positive one with no trace to carry the
// records, is an error naming the flag, raised before any file opens.
func TestStartTelemetryRejectsBadIntervals(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for name, cfg := range map[string]TelemetryConfig{
		"negative period": {Intervals: -5, TracePath: trace},
		"no trace":        {Intervals: 1000},
	} {
		tel, err := StartTelemetry("test", session.New(session.Options{}), cfg)
		if err == nil || !strings.Contains(err.Error(), "-intervals") {
			t.Errorf("%s: err = %v, want an error naming -intervals", name, err)
		}
		if cerr := tel.Close(); cerr != nil {
			t.Errorf("%s: close: %v", name, cerr)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("%s: a rejected config created the trace file (stat err %v)", name, err)
		}
	}

	tel, err := StartTelemetry("test", session.New(session.Options{}), TelemetryConfig{Intervals: 500, TracePath: trace})
	if err != nil {
		t.Fatalf("-intervals 500 -trace: %v", err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
}

// The stream header carries the run's trace ID, minted by StartTelemetry
// in the form tracing.NewTraceID generates.
func TestStartTelemetryMintsTraceID(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	tel, err := StartTelemetry("test", session.New(session.Options{}), TelemetryConfig{TracePath: trace})
	if err != nil {
		t.Fatal(err)
	}
	tel.Context(context.Background())
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, _, err := tracing.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(meta.TraceID) {
		t.Errorf("stream header trace ID %q, want 16 lower-case hex characters", meta.TraceID)
	}
}
