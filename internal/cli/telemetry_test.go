package cli

import (
	"context"
	"os"
	"path/filepath"
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

// -trace-id joins a trace whose ID the remote cache tier sends as an HTTP
// header, so it must have the form tracing.NewTraceID generates: anything
// else is an error naming the flag, raised before the trace file opens. A
// valid ID is the stream header's trace ID.
func TestStartTelemetryRejectsBadTraceID(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for name, id := range map[string]string{
		"control character": "0123456789abcde\n",
		"15 characters":     "0123456789abcde",
		"upper case":        "0123456789ABCDEF",
	} {
		tel, err := StartTelemetry("test", session.New(session.Options{}), TelemetryConfig{TracePath: trace, TraceID: id})
		if err == nil || !strings.Contains(err.Error(), "-trace-id") {
			t.Errorf("%s: err = %v, want an error naming -trace-id", name, err)
		}
		if cerr := tel.Close(); cerr != nil {
			t.Errorf("%s: close: %v", name, cerr)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("%s: a rejected config created the trace file (stat err %v)", name, err)
		}
	}

	const id = "0123456789abcdef"
	tel, err := StartTelemetry("test", session.New(session.Options{}), TelemetryConfig{TracePath: trace, TraceID: id})
	if err != nil {
		t.Fatalf("-trace-id %s: %v", id, err)
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
	if meta.TraceID != id {
		t.Errorf("stream header trace ID %q, want %q", meta.TraceID, id)
	}
}
