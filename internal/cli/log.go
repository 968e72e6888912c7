// Structured diagnostics for the command-line tools. Every tool's
// diagnostics — wall times, engine stats, interruption notices, telemetry
// lifecycle messages — go through log/slog to stderr, behind two shared
// flags: -log-level picks the floor and -log-format picks human-readable
// text or machine-parseable JSON (one object per line, ingestible by the
// same tooling that reads the JSONL span streams). Result tables stay on
// stdout, untouched: stdout is data, stderr is commentary.

package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
)

// LogConfig carries the shared logging flags.
type LogConfig struct {
	// Level is the minimum level emitted: debug, info, warn or error.
	Level string
	// Format is "text" or "json".
	Format string
}

// RegisterFlags registers -log-level and -log-format on the default flag
// set, pointing at this config.
func (c *LogConfig) RegisterFlags() {
	flag.StringVar(&c.Level, "log-level", "info", "diagnostic log level: debug|info|warn|error")
	flag.StringVar(&c.Format, "log-format", "text", "diagnostic log format: text|json")
}

// Setup installs the process-default slog logger described by the config,
// tagged with the tool's name, writing to stderr. Call it right after
// flag.Parse, before any diagnostic output.
func (c LogConfig) Setup(tool string) error {
	var level slog.Level
	switch strings.ToLower(c.Level) {
	case "debug":
		level = slog.LevelDebug
	case "", "info":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return fmt.Errorf("cli: unknown -log-level %q (want debug|info|warn|error)", c.Level)
	}

	var h slog.Handler
	switch strings.ToLower(c.Format) {
	case "", "text":
		// Drop the timestamp in text mode: these are interactive
		// diagnostics, and the JSONL run trace already carries precise
		// timing for anyone reconstructing a timeline.
		h = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
			Level: level,
			ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
				if len(groups) == 0 && a.Key == slog.TimeKey {
					return slog.Attr{}
				}
				return a
			},
		})
	case "json":
		h = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	default:
		return fmt.Errorf("cli: unknown -log-format %q (want text|json)", c.Format)
	}
	slog.SetDefault(slog.New(h).With("tool", tool))
	return nil
}
