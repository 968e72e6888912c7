// Self-status and readiness. Every xpserved self-reports over
// GET /v1/status — build identity, scheduler capacity, per-state job
// census, evaluation-cache counters — and answers GET /readyz from its
// own admission state plus the dependency probes it was given. A view of
// several processes is their /v1/status documents and /metrics scrapes
// side by side; no process polls another.

package xpserve

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"xpscalar/internal/evalengine"
)

// CacheStats is the compact wire form of a session's evaluation-cache
// counters — the subset of evalengine.Stats an operator watches:
// request classification, tier hit/miss split, and tier occupancy.
type CacheStats struct {
	Requests    uint64 `json:"requests"`
	Hits        uint64 `json:"hits"`
	Deduped     uint64 `json:"deduped"`
	Misses      uint64 `json:"misses"`
	DiskHits    uint64 `json:"disk_hits"`
	DiskMisses  uint64 `json:"disk_misses"`
	MemEntries  uint64 `json:"mem_entries"`
	DiskEntries uint64 `json:"disk_entries"`
	DiskBytes   uint64 `json:"disk_bytes"`
}

func cacheStatsOf(st evalengine.Stats) CacheStats {
	return CacheStats{
		Requests:    st.Requests,
		Hits:        st.Hits,
		Deduped:     st.Deduped,
		Misses:      st.Misses,
		DiskHits:    st.DiskHits,
		DiskMisses:  st.DiskMisses,
		MemEntries:  st.CacheEntries,
		DiskEntries: st.Disk.Entries,
		DiskBytes:   st.Disk.Bytes,
	}
}

// SelfStatus is one process's self-report, served at GET /v1/status.
type SelfStatus struct {
	Tool      string    `json:"tool"`
	PID       int       `json:"pid"`
	GoVersion string    `json:"go_version"`
	Revision  string    `json:"revision,omitempty"`
	StartedAt time.Time `json:"started_at"`

	// TraceID identifies the process's span stream: serve.* spans this
	// peer records for remote callers live under it.
	TraceID string `json:"trace_id,omitempty"`

	Capacity Capacity   `json:"capacity"`
	Jobs     JobCounts  `json:"jobs"`
	Cache    CacheStats `json:"cache"`
}

// SelfStatus snapshots this scheduler's process.
func (s *Scheduler) SelfStatus() SelfStatus {
	st := SelfStatus{
		Tool:      "xpserved",
		PID:       os.Getpid(),
		GoVersion: runtime.Version(),
		Revision:  vcsRevision(),
		StartedAt: s.started,
		Capacity:  s.Capacity(),
		Jobs:      s.JobCounts(),
		Cache:     cacheStatsOf(s.sess.Stats()),
	}
	if rec := s.sess.Recorder(); rec != nil {
		st.TraceID = rec.TraceID()
	}
	return st
}

// vcsRevision is the build's VCS revision when the binary was built from
// a checkout; empty otherwise.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// ReadyProbe is one readiness dependency: Check returns nil when the
// dependency can serve. Probes must be cheap — they run on every /readyz.
type ReadyProbe struct {
	Name  string
	Check func() error
}

// SetReadinessProbes attaches the dependency probes /readyz consults
// beyond the scheduler's own admission state (e.g. the disk tier's
// directory).
func (s *Scheduler) SetReadinessProbes(probes ...ReadyProbe) {
	s.mu.Lock()
	s.probes = probes
	s.mu.Unlock()
}

// Readiness is the /readyz document.
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Readiness decides whether this process should receive new work:
// not shutting down, backlog headroom available, and every attached
// dependency probe passing. Liveness stays separate (/healthz): a
// saturated backlog is a healthy process that wants no more work, not a
// process to restart.
func (s *Scheduler) Readiness() Readiness {
	var reasons []string
	c := s.Capacity()
	if c.ShuttingDown {
		reasons = append(reasons, "shutting down")
	}
	if c.Queued >= c.Backlog {
		reasons = append(reasons, fmt.Sprintf("backlog saturated (%d/%d)", c.Queued, c.Backlog))
	}
	s.mu.Lock()
	probes := s.probes
	s.mu.Unlock()
	for _, p := range probes {
		if err := p.Check(); err != nil {
			reasons = append(reasons, p.Name+": "+err.Error())
		}
	}
	return Readiness{Ready: len(reasons) == 0, Reasons: reasons}
}
