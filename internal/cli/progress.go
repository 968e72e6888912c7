// The -progress renderer, a consumer of the run's step and chain spans.
// On an interactive terminal it repaints a single status line in place
// (carriage return + erase-line), so a long run shows a live ticker
// instead of scrolling history; when stderr is redirected to a file or a
// pipe it falls back to a plain line per update, so captured logs stay
// readable and diffable. Chains run in parallel, so updates interleave;
// each is self-identifying (workload/chain). Output goes to stderr so
// tables on stdout stay machine-parseable.

package cli

import (
	"fmt"
	"io"
	"os"
	"sync"

	"xpscalar/internal/tracing"
)

// progressRenderer prints throttled progress updates from ended spans.
type progressRenderer struct {
	mu  sync.Mutex
	w   io.Writer
	tty bool
	// live reports whether the current terminal line holds an in-place
	// status that must be erased before the next write.
	live bool
}

func newProgressRenderer(w io.Writer) *progressRenderer {
	return &progressRenderer{w: w, tty: isTerminal(w)}
}

// render reports step and chain spans and ignores every other kind.
func (p *progressRenderer) render(s tracing.Span) {
	switch a := s.Attrs.(type) {
	case *tracing.StepAttrs:
		p.step(s.Name, int(s.Arg), a)
	case *tracing.ChainAttrs:
		p.chain(s.Name, int(s.Arg), a)
	}
}

// isTerminal reports whether w is an interactive character device. Only
// *os.File can be; anything else (test buffers, pipes wrapped in writers)
// gets the plain-line renderer.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// step reports every stride-th iteration (iterations are 1-based), where
// the stride is a tenth of the chain's budget.
func (p *progressRenderer) step(workload string, iteration int, a *tracing.StepAttrs) {
	stride := max(a.TotalIterations/10, 1)
	if iteration%stride != 0 && iteration != a.TotalIterations {
		return
	}
	line := fmt.Sprintf("progress: %s chain %d %d/%d T=%.3g best=%.4f",
		workload, a.Chain, iteration, a.TotalIterations, a.Temperature, a.BestScore)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tty {
		fmt.Fprintf(p.w, "\r\x1b[2K%s", line)
		p.live = true
		return
	}
	fmt.Fprintln(p.w, line)
}

// chain reports a chain completion. It always gets a persistent line,
// even on a terminal.
func (p *progressRenderer) chain(workload string, chain int, a *tracing.ChainAttrs) {
	line := fmt.Sprintf("progress: %s chain %d done best=%.4f ipt=%.4f evals=%d",
		workload, chain, a.BestScore, a.BestIPT, a.Evaluations)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tty && p.live {
		fmt.Fprint(p.w, "\r\x1b[2K")
		p.live = false
	}
	fmt.Fprintln(p.w, line)
}
