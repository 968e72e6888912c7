// Readiness. Every xpserved answers GET /readyz from its own admission
// state plus the dependency probes it was given; its counters are on
// /metrics and its build on /buildinfo.

package xpserve

import "fmt"

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
