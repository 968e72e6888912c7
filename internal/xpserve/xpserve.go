// Package xpserve is the exploration service: a bounded multi-tenant job
// scheduler plus an HTTP/JSON API (cmd/xpserved) over one shared
// evaluation session. Clients POST exploration, cross-matrix or
// subsetting jobs; the scheduler runs them with bounded concurrency on
// the session's worker pool, every tenant sharing one two-tier (memory +
// disk) evaluation cache — so the second client asking for an already
// explored region pays cache reads, not simulations.
//
// A job moves queued → running → done | failed | cancelled. While it
// runs, its spans (annealing steps and chains, evaluations, matrix rows)
// are appended to a per-job event stream as they end, which clients can
// tail live over HTTP; the stream is the span-stream format of the -trace
// files, so xptrace tooling reads a saved copy unchanged. Cancellation
// (DELETE) propagates through the job's context and stops the search at
// the next annealing iteration.
package xpserve

import (
	"context"
	"encoding/json"
	"time"

	"xpscalar/internal/tracing"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job kinds.
const (
	KindExplore    = "explore"
	KindMatrix     = "matrix"
	KindSubsetting = "subsetting"
)

// JobRequest is the body of POST /v1/jobs. Kind selects the computation;
// zero-valued knobs take the same defaults the command-line tools use.
type JobRequest struct {
	// Kind is "explore", "matrix" or "subsetting".
	Kind string `json:"kind"`

	// Workloads restricts the run to named profiles of the synthetic
	// suite (default: the whole suite). Explore and matrix jobs only.
	Workloads []string `json:"workloads,omitempty"`

	// Seed makes the job deterministic (default 42).
	Seed *int64 `json:"seed,omitempty"`

	// Annealing knobs (explore and matrix jobs).
	Iterations    int    `json:"iterations,omitempty"`
	Chains        int    `json:"chains,omitempty"`
	ShortBudget   int    `json:"short_budget,omitempty"`
	LongBudget    int    `json:"long_budget,omitempty"`
	NeighborhoodK int    `json:"neighborhood,omitempty"`
	Objective     string `json:"objective,omitempty"` // ipt|ipt-per-watt|edp|ed2p

	// Instructions is the per-evaluation budget of matrix cells and
	// subsetting characteristic extraction.
	Instructions int `json:"instructions,omitempty"`

	// KMeans, for subsetting jobs, additionally clusters the suite's
	// characteristic vectors with this k (0: dendrogram only).
	KMeans int `json:"kmeans,omitempty"`
}

// JobStatus is the wire form of a job's state, returned by GET /v1/jobs
// and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	// TraceID identifies the job's trace: minted at submit, it is the
	// trace ID in the header of the job's event stream.
	TraceID string `json:"trace_id,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Events is the number of spans on the job's event stream so far.
	Events int `json:"events"`

	// Result is the job's JSON result document, present once done. Its
	// shape depends on Kind: explore jobs return the outcomes file
	// format (xpscalar-outcomes-v1), matrix jobs the matrix file format
	// (xpscalar-matrix-v1), subsetting jobs a cluster report.
	Result json.RawMessage `json:"result,omitempty"`
}

// Job is one submitted computation. All mutable state is behind the
// scheduler's lock; the running computation communicates only through
// ctx, the event stream, and its return value.
type Job struct {
	id      string
	traceID string
	req     JobRequest

	created  time.Time
	started  time.Time
	finished time.Time

	state  string
	err    string
	result json.RawMessage

	ctx    context.Context
	cancel context.CancelFunc

	events *eventBuffer
	// stream writes the job's spans into events; read for the status
	// event count. Guarded by the scheduler's lock.
	stream *tracing.StreamWriter
}

// streamed reports how many spans the job's stream holds (0 before it
// starts). Caller holds the scheduler lock.
func (j *Job) streamed() int {
	if j.stream == nil {
		return 0
	}
	return j.stream.Len()
}
