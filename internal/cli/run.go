// The shared run lifecycle of the command-line tools: a distinct exit
// status per way a run can end and, for the tools that run long, one
// -timeout flag and SIGINT/SIGTERM-driven graceful shutdown. Every tool's
// main reduces to
//
//	func main() { os.Exit(cli.Main(run)) }
//	func run(ctx context.Context) error { ... }
//
// so that run's defers — the telemetry flush above all — always execute
// before the process picks its exit code: os.Exit never races a buffered
// trace.

package cli

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Exit statuses. Interrupt and timeout get the conventional shell codes
// (128+SIGINT and the timeout(1) convention respectively) so scripts can
// tell a cancelled run from a failed one.
const (
	ExitOK          = 0
	ExitError       = 1
	ExitTimeout     = 124
	ExitInterrupted = 130
)

// RunConfig carries the shared run-lifecycle flags.
type RunConfig struct {
	// Timeout bounds the whole run; 0 means none.
	Timeout time.Duration
}

// RegisterFlags registers -timeout on the default flag set.
func (c *RunConfig) RegisterFlags() {
	flag.DurationVar(&c.Timeout, "timeout", 0, "abort the run after this duration (e.g. 30s, 5m; 0 = no limit)")
}

// Context derives the run's root context from parent: cancelled on SIGINT
// or SIGTERM, and additionally bounded by c.Timeout when set. The
// returned stop function releases the signal registration and must be
// deferred. A second signal while the first is being honoured falls back
// to Go's default handling and kills the process immediately.
func (c RunConfig) Context(parent context.Context) (ctx context.Context, stop func()) {
	ctx, sigStop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	if c.Timeout <= 0 {
		return ctx, sigStop
	}
	ctx, cancel := context.WithTimeout(ctx, c.Timeout)
	return ctx, func() { cancel(); sigStop() }
}

// ExitCode maps a run's error to its exit status: nil is success, context
// deadline expiry is a timeout, context cancellation (the signal path) is
// an interrupt, anything else a plain failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.DeadlineExceeded):
		return ExitTimeout
	case errors.Is(err, context.Canceled):
		return ExitInterrupted
	default:
		return ExitError
	}
}

// Main runs a tool body under the shared lifecycle and returns the
// process exit status. It does not call os.Exit itself — the caller does,
// after Main has returned and every defer inside run has completed.
func Main(run func(ctx context.Context) error) int {
	err := run(context.Background())
	if err != nil {
		slog.Error(err.Error())
	}
	return ExitCode(err)
}
