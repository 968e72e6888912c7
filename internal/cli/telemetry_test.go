package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xpscalar/internal/session"
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
