package session

import (
	"context"
	"testing"

	"strings"

	"xpscalar/internal/explore"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/workload"
)

// exploreTinyOptions keeps the session-level exploration test fast. No
// Engine is set: wiring it is the session's job.
func exploreTinyOptions(seed int64) explore.Options {
	o := explore.DefaultOptions(seed)
	o.Iterations = 10
	o.Chains = 1
	o.ShortBudget = 2000
	o.LongBudget = 4000
	return o
}

// TestSessionsAreIsolated: two sessions never share an engine — the same
// design point simulates once per session and the counters stay separate.
func TestSessionsAreIsolated(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p, _ := workload.ByName("gzip")

	a, b := New(Options{}), New(Options{})
	if a.Engine() == b.Engine() {
		t.Fatal("two sessions share one engine")
	}
	for _, s := range []*Session{a, b} {
		if _, err := s.Evaluate(context.Background(), cfg, p, 3000, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa.Misses != 1 || sb.Misses != 1 {
		t.Fatalf("each session must simulate the point itself: a=%+v b=%+v", sa, sb)
	}

	// Re-evaluating within one session hits its cache.
	if _, err := a.Evaluate(context.Background(), cfg, p, 3000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if sa := a.Stats(); sa.Hits != 1 {
		t.Fatalf("session cache did not serve the repeat: %+v", sa)
	}
}

// TestDefaultIsOneSession: the process-default session is created once and
// returned thereafter.
func TestDefaultIsOneSession(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned distinct sessions")
	}
}

// TestSessionExploreWiresEngine: Explore injects the session's engine into
// the options, so callers never have to.
func TestSessionExploreWiresEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing run")
	}
	s := New(Options{})
	p, _ := workload.ByName("gzip")
	opt := exploreTinyOptions(3)
	out, err := s.Explore(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.BestIPT <= 0 {
		t.Fatal("exploration found nothing")
	}
	if st := s.Stats(); st.Requests == 0 {
		t.Fatal("exploration did not run through the session's engine")
	}
}

// Regression for the session-replacement telemetry trap: a registry
// wired to one session and then to another used to keep the first
// engine's Func closures — scrapes then read a dead engine's counters
// (and any kind drift panicked). Re-registration must be panic-free and
// follow the latest session.
func TestEnableTelemetryFollowsLatestSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	New(Options{}).EnableTelemetry(reg)

	// Wire a second session into the same registry. This must not panic.
	sess := New(Options{})
	sess.EnableTelemetry(reg)

	// Drive one evaluation through the NEW session; the registry's request
	// counter must see it (latest-wins), not the dead engine's zero.
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p, _ := workload.ByName("gzip")
	if _, err := sess.Evaluate(context.Background(), cfg, p, 2000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "xpscalar_eval_requests_total 1") {
		t.Errorf("scrape does not follow the live session's engine:\n%s", sb.String())
	}
}
