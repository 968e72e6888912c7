// The job scheduler: a fixed pool of job workers over one shared session.
// Concurrency is bounded twice — MaxJobs jobs run at once, Backlog jobs
// wait in a FIFO queue, and a submit beyond both is rejected immediately
// (the API's 429) rather than absorbed into an unbounded queue. Within a
// job, parallelism is the session's worker pool, so the whole service's
// simulation load stays bounded by the pool regardless of how many jobs
// run.

package xpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"xpscalar/internal/session"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

// Options sizes a Scheduler. The zero value selects defaults.
type Options struct {
	// MaxJobs is the number of jobs running concurrently (default 2).
	MaxJobs int
	// Backlog is the queued-job bound beyond the running ones (default
	// 16); a submit past it returns ErrBacklogFull.
	Backlog int
}

// ErrBacklogFull rejects a submit when the queue is at capacity.
var ErrBacklogFull = fmt.Errorf("xpserve: job backlog full")

// ErrShuttingDown rejects a submit after Shutdown began.
var ErrShuttingDown = fmt.Errorf("xpserve: shutting down")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = fmt.Errorf("xpserve: no such job")

// Scheduler owns the job table and the worker pool that drains it. All
// jobs evaluate on one shared Session: tenants share its memory cache,
// its persistent tier, and its simulation worker pool.
type Scheduler struct {
	sess  *session.Session
	opts  Options // normalized: MaxJobs and Backlog are the effective bounds
	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for List
	nextID   int
	shutdown bool
	probes   []ReadyProbe

	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// New starts a scheduler over sess. Close it with Shutdown.
func New(sess *session.Session, o Options) *Scheduler {
	if o.MaxJobs < 1 {
		o.MaxJobs = 2
	}
	if o.Backlog < 1 {
		o.Backlog = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		sess:       sess,
		opts:       o,
		queue:      make(chan *Job, o.Backlog),
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		cancelBase: cancel,
	}
	for i := 0; i < o.MaxJobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Session returns the shared evaluation session.
func (s *Scheduler) Session() *session.Session { return s.sess }

// Submit validates and enqueues a job, returning its ID. The job is
// rejected synchronously when the request is malformed, the backlog is
// full, or the scheduler is shutting down.
func (s *Scheduler) Submit(req JobRequest) (*JobStatus, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		id:      fmt.Sprintf("job-%04d", s.nextID),
		traceID: tracing.NewTraceID(),
		req:     req,
		created: time.Now(),
		state:   StateQueued,
		ctx:     ctx,
		cancel:  cancel,
		events:  newEventBuffer(),
	}
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		cancel()
		return nil, ErrBacklogFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	st := j.statusLocked()
	s.mu.Unlock()
	return &st, nil
}

// maxBudget bounds every per-evaluation instruction budget a job may ask
// for at the paper's refinement budget. A simulation that has started runs
// to completion, so without a bound one request could hold a job worker
// for days, past DELETE and past shutdown.
const maxBudget = 100_000_000

// validate rejects malformed requests before they occupy a queue slot.
// The annealing knobs must pass the annealer's own option check, which
// bounds the fan-out a request can ask for; each instruction budget must
// be within maxBudget.
func validate(req JobRequest) error {
	switch req.Kind {
	case KindExplore, KindMatrix, KindSubsetting:
	default:
		return fmt.Errorf("xpserve: unknown job kind %q", req.Kind)
	}
	if _, err := profiles(req.Workloads); err != nil {
		return err
	}
	if req.ShortBudget > maxBudget || req.LongBudget > maxBudget || req.Instructions > maxBudget {
		return fmt.Errorf("xpserve: short_budget %d, long_budget %d, instructions %d: each must be at most %d",
			req.ShortBudget, req.LongBudget, req.Instructions, maxBudget)
	}
	_, err := exploreOptions(req)
	return err
}

// worker drains the queue until Shutdown closes it.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through its state machine.
func (s *Scheduler) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued || j.ctx.Err() != nil {
		// Cancelled while queued.
		if j.state == StateQueued {
			j.state = StateCancelled
			j.finished = time.Now()
		}
		s.mu.Unlock()
		j.events.close()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()

	result, err := s.execute(j)

	s.mu.Lock()
	j.finished = time.Now()
	switch {
	case j.ctx.Err() != nil:
		j.state = StateCancelled
		if err != nil {
			j.err = err.Error()
		}
	case err != nil:
		j.state = StateFailed
		j.err = err.Error()
	default:
		j.state = StateDone
		j.result = result
	}
	s.mu.Unlock()
	j.cancel()
	j.events.close()
}

// execute dispatches on the job kind under the job's own recorder, which
// streams the job's span subtree into its event buffer: the stream header
// first, then each span as it ends, flushed through at once so tailing
// clients see steps, evaluations and matrix rows as they happen.
//
// Every job carries its fleet-unique trace ID three ways: in its stream's
// header, stamped (with the job ID) on the root "job" span, and propagated
// over HTTP by the remote-cache client via the job-ID context — so one
// grep for the trace ID correlates a job's stream with the serve.* spans
// it caused on other peers.
func (s *Scheduler) execute(j *Job) (json.RawMessage, error) {
	var stream *tracing.StreamWriter
	rec := tracing.NewRecorderFunc(func(sp tracing.Span) {
		stream.Write(sp)
		stream.Flush()
	})
	rec.SetTraceID(j.traceID)
	stream = tracing.NewStreamWriter(j.events, tracing.Meta{Tool: "xpserved", TraceID: j.traceID, OriginUnixNs: rec.Origin()})
	s.mu.Lock()
	j.stream = stream
	s.mu.Unlock()
	defer stream.Close()

	h := tracing.Root(rec)
	sp := h.BeginRemote(tracing.KindJob, j.req.Kind, 0, tracing.SpanContext{TraceID: j.traceID, Job: j.id})
	defer h.End(sp)
	ctx := tracing.ChildContext(tracing.NewContext(tracing.WithJobID(j.ctx, j.id), rec), sp)
	switch j.req.Kind {
	case KindExplore:
		return runExplore(ctx, s.sess, j.req)
	case KindMatrix:
		return runMatrix(ctx, s.sess, j.req)
	case KindSubsetting:
		return runSubsetting(ctx, s.sess, j.req)
	default:
		return nil, fmt.Errorf("xpserve: unknown job kind %q", j.req.Kind)
	}
}

// Get returns a job's status.
func (s *Scheduler) Get(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	st := j.statusLocked()
	return &st, nil
}

// List returns every job's status in submission order.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.statusLocked())
	}
	return out
}

// Cancel requests a job stop. Queued jobs flip to cancelled when a worker
// reaches them; running jobs see their context fire and unwind at the
// next evaluation boundary. Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	cancel := j.cancel
	st := j.statusLocked()
	s.mu.Unlock()
	cancel()
	return &st, nil
}

// Events returns the job's event stream buffer for tailing, plus whether
// the job can still produce events.
func (s *Scheduler) Events(id string) (*eventBuffer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.events, nil
}

// Shutdown stops accepting jobs, cancels everything queued or running,
// and waits for the workers to drain. The shared session is NOT closed —
// its owner (cmd/xpserved) closes it after the HTTP server stops.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.shutdown = true
	s.mu.Unlock()
	s.cancelBase()
	close(s.queue)
	s.wg.Wait()
	// Jobs still queued when the workers exited never ran; mark them.
	s.mu.Lock()
	for _, j := range s.order {
		if j.state == StateQueued {
			j.state = StateCancelled
			j.finished = time.Now()
			j.events.close()
		}
	}
	s.mu.Unlock()
}

// statusLocked snapshots a job (caller holds the scheduler lock).
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		Kind:      j.req.Kind,
		State:     j.state,
		Error:     j.err,
		TraceID:   j.traceID,
		CreatedAt: j.created,
		Events:    j.streamed(),
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// EnableTelemetry registers the scheduler's job gauges with a metrics
// registry: queue depth and per-state job counts, alongside whatever the
// session's engine already exports.
func (s *Scheduler) EnableTelemetry(reg *telemetry.Registry) {
	count := func(state string) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.order {
				if j.state == state {
					n++
				}
			}
			return float64(n)
		}
	}
	reg.Func("xpserved_jobs_queued", "jobs waiting for a worker", "gauge", count(StateQueued))
	reg.Func("xpserved_backlog_headroom", "queue slots free before submits 429", "gauge", func() float64 {
		c := s.Capacity()
		return float64(c.Backlog - c.Queued)
	})
	reg.Func("xpserved_jobs_running", "jobs currently executing", "gauge", count(StateRunning))
	reg.Func("xpserved_jobs_done_total", "jobs completed successfully", "counter", count(StateDone))
	reg.Func("xpserved_jobs_failed_total", "jobs that returned an error", "counter", count(StateFailed))
	reg.Func("xpserved_jobs_cancelled_total", "jobs cancelled by clients or shutdown", "counter", count(StateCancelled))
}

// Capacity snapshots the scheduler's admission state — the fixed bounds
// and how much of them is in use. Queued counts jobs occupying backlog
// slots (a submit with Queued == Backlog returns 429); Running counts
// jobs a worker currently holds.
type Capacity struct {
	MaxJobs      int  `json:"max_jobs"`
	Backlog      int  `json:"backlog"`
	Queued       int  `json:"queued"`
	Running      int  `json:"running"`
	ShuttingDown bool `json:"shutting_down,omitempty"`
}

// Capacity reports the scheduler's current admission state.
func (s *Scheduler) Capacity() Capacity {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Capacity{
		MaxJobs:      s.opts.MaxJobs,
		Backlog:      s.opts.Backlog,
		Queued:       len(s.queue),
		ShuttingDown: s.shutdown,
	}
	for _, j := range s.order {
		if j.state == StateRunning {
			c.Running++
		}
	}
	return c
}
