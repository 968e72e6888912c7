// Loading a run's span stream into the views the subcommands read: the
// header's manifest, and the attributed spans grouped by what they record.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/tracing"
)

// trace is one decoded run. Slices hold records in stream order (the order
// their spans ended).
type trace struct {
	path  string
	meta  tracing.Meta
	spans []tracing.Span
	// summary is the run span's counters and wallNs its duration; nil and
	// zero for a stream without a run span (a job's stream).
	summary *tracing.RunAttrs
	wallNs  int64
	steps   []step
	chains  []chain
	evals   []eval
	cells   []cell
}

// step is one annealing iteration: a step span's attributes with the
// workload and iteration its span carries.
type step struct {
	workload  string
	iteration int
	*tracing.StepAttrs
}

// chain is one completed annealing chain.
type chain struct {
	workload string
	index    int
	*tracing.ChainAttrs
}

// eval is one evaluation — one member of an eval.* span — with the time
// its span ended, for the cache-effectiveness timeline, and the interval
// series it simulated, if any.
type eval struct {
	workload  string
	budget    int
	endNs     int64
	intervals []pipeline.IntervalRecord
	tracing.EvalMember
}

// config is the evaluated configuration's canonical string ("" on error).
func (e eval) config() string {
	if e.Config == nil {
		return ""
	}
	return e.Config.String()
}

// cell is one matrix cell, expanded from its row's cell span.
type cell struct {
	workload string
	budget   int
	tracing.Cell
}

// loadTrace reads and decodes a run's span stream. A missing run span is
// not an error — interrupted runs and job streams still analyze.
func loadTrace(path string) (*trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := readTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.path = path
	return t, nil
}

// readTrace decodes a span stream read from r.
func readTrace(r io.Reader) (*trace, error) {
	meta, spans, err := tracing.ReadSpans(r)
	if err != nil {
		return nil, err
	}
	t := &trace{meta: meta, spans: spans}
	for _, s := range spans {
		switch a := s.Attrs.(type) {
		case *tracing.RunAttrs:
			t.summary, t.wallNs = a, s.DurNs()
		case *tracing.StepAttrs:
			t.steps = append(t.steps, step{s.Name, int(s.Arg), a})
		case *tracing.ChainAttrs:
			t.chains = append(t.chains, chain{s.Name, int(s.Arg), a})
		case *tracing.EvalAttrs:
			for _, m := range a.Members {
				e := eval{workload: s.Name, budget: a.Budget, endNs: s.End, EvalMember: m}
				if raw, ok := m.Intervals.(json.RawMessage); ok {
					// Strict: a record field this build does not know is an
					// error, not a silently dropped counter.
					dec := json.NewDecoder(bytes.NewReader(raw))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&e.intervals); err != nil {
						return nil, fmt.Errorf("span %d intervals: %w", s.ID, err)
					}
				}
				t.evals = append(t.evals, e)
			}
		case *tracing.CellAttrs:
			for _, c := range a.Cells {
				t.cells = append(t.cells, cell{s.Name, a.Budget, c})
			}
		}
	}
	return t, nil
}
