package evalengine

import (
	"context"
	"strings"
	"testing"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

// evalMembers returns every member of every eval.* span rec holds, in
// span start order, with the budget of its span.
func evalMembers(t *testing.T, rec *tracing.Recorder) ([]tracing.EvalMember, []int) {
	t.Helper()
	var members []tracing.EvalMember
	var budgets []int
	for _, s := range evalSpans(rec) {
		a, ok := s.Attrs.(*tracing.EvalAttrs)
		if !ok {
			t.Fatalf("%s span carries no evaluation attributes", s.Kind)
		}
		for _, m := range a.Members {
			members = append(members, m)
			budgets = append(budgets, a.Budget)
		}
	}
	return members, budgets
}

// A recorded evaluation span carries one member per request with the
// outcome the stats counters report; an unrecorded request records
// nothing. The span recorder is the engine's only observer.
func TestEvalObserverOutcomes(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(7)
	eng := New(Options{})
	rec := tracing.NewRecorder()
	ctx := tracing.NewContext(context.Background(), rec)

	if _, err := eng.Evaluate(ctx, cfg, p, 5000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(ctx, cfg, p, 5000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}

	members, budgets := evalMembers(t, rec)
	got := map[string]int{}
	for i, m := range members {
		got[m.Outcome]++
		if budgets[i] != 5000 {
			t.Errorf("member %+v: budget %d, want 5000", m, budgets[i])
		}
		if m.Err != nil {
			t.Errorf("member %+v: unexpected error", m)
		}
		if m.Outcome == "miss" && m.WallNs <= 0 {
			t.Errorf("miss member has wall time %d", m.WallNs)
		}
		if m.Outcome == "hit" && m.WallNs != 0 {
			t.Errorf("hit member has wall time %d", m.WallNs)
		}
		if m.IPT <= 0 || m.Score <= 0 {
			t.Errorf("member %+v: non-positive score", m)
		}
		if m.Config == nil || m.Config.String() != cfg.String() {
			t.Errorf("member config %v, want %v", m.Config, cfg)
		}
	}
	if got["miss"] != 1 || got["hit"] != 1 {
		t.Fatalf("outcomes = %v, want 1 miss + 1 hit", got)
	}
	for _, s := range evalSpans(rec) {
		if s.Name != p.Name {
			t.Errorf("%s span for workload %q, want %q", s.Kind, s.Name, p.Name)
		}
	}

	if _, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if n := len(evalSpans(rec)); n != 2 {
		t.Errorf("an unrecorded request reached the recorder (%d spans)", n)
	}
}

// A failed evaluation's member carries the error and no scores (a zero
// Result would yield NaN, which is unencodable as JSON downstream).
func TestEvalObserverError(t *testing.T) {
	tp := tech.Default()
	p := testProfile(9)
	eng := New(Options{})
	rec := tracing.NewRecorder()

	if _, err := eng.Evaluate(tracing.NewContext(context.Background(), rec), sim.Config{}, p, 5000, tp, power.ObjIPT); err == nil {
		t.Fatal("zero config evaluated without error")
	}
	members, _ := evalMembers(t, rec)
	if len(members) != 1 {
		t.Fatalf("got %d members, want 1", len(members))
	}
	m := members[0]
	if m.Err == nil {
		t.Error("member is missing the evaluation error")
	}
	if m.Score != 0 || m.IPT != 0 || m.Config != nil {
		t.Errorf("failed member carries results: %+v", m)
	}
}

// CacheEntries must track live occupancy across inserts and evictions,
// both via the method and the Stats snapshot.
func TestCacheEntriesTracksOccupancy(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(5)
	eng := New(Options{CacheEntries: 4, Shards: 1})

	if got := eng.CacheEntries(); got != 0 {
		t.Fatalf("fresh engine has %d entries", got)
	}
	for n := 1000; n < 1003; n++ {
		if _, err := eng.Evaluate(context.Background(), cfg, p, n, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.CacheEntries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	for n := 1003; n < 1010; n++ {
		if _, err := eng.Evaluate(context.Background(), cfg, p, n, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.CacheEntries(); got != 4 {
		t.Fatalf("entries = %d, want capacity 4", got)
	}
	s := eng.Stats()
	if s.CacheEntries != 4 {
		t.Fatalf("Stats().CacheEntries = %d, want 4", s.CacheEntries)
	}
	if !strings.Contains(s.String(), "entries=4") {
		t.Errorf("Stats().String() missing entry count: %s", s)
	}
}

// EnableTelemetry exports the engine's counters as scrape-time metrics;
// the rendered Prometheus text must reflect activity that happened both
// before and after registration.
func TestEnableTelemetryExportsCounters(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(13)
	eng := New(Options{})

	if _, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.EnableTelemetry(reg)
	// A fresh point after registration lands in the sim-latency histogram;
	// a repeat shows up as a hit.
	if _, err := eng.Evaluate(context.Background(), cfg, p, 6000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(context.Background(), cfg, p, 6000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"xpscalar_eval_requests_total 3",
		"xpscalar_eval_cache_hits_total 1",
		"xpscalar_eval_misses_total 2",
		"xpscalar_eval_cache_entries 2",
		"xpscalar_sim_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, text)
		}
	}
}

// Lockstep batches feed the group-size histogram and counters, and every
// lane reaches the batch span as a miss member carrying the group's
// amortized wall time.
func TestEnableTelemetryLockstepMetrics(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	p := testProfile(19)
	eng := New(Options{})
	reg := telemetry.NewRegistry()
	eng.EnableTelemetry(reg)
	rec := tracing.NewRecorder()

	dst := make([]Eval, len(cs))
	if err := eng.EvaluateBatch(tracing.NewContext(context.Background(), rec), dst, cs, p, 4000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}

	members, _ := evalMembers(t, rec)
	if len(members) != 4 {
		t.Fatalf("batch span carries %d members, want 4", len(members))
	}
	for i, m := range members {
		if m.Outcome != "miss" || m.WallNs <= 0 {
			t.Errorf("lockstep member %d: %+v, want a miss with wall time", i, m)
		}
		if m.Config.String() != cs[i].String() {
			t.Errorf("member %d config %v, want %v", i, m.Config, cs[i])
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"xpscalar_lockstep_groups_total 1",
		"xpscalar_lockstep_lanes_total 4",
		"xpscalar_lockstep_scalar_fallbacks_total 0",
		"xpscalar_lockstep_group_size_count 1",
		"xpscalar_lockstep_group_size_sum 4",
		"xpscalar_sim_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, text)
		}
	}
}

// The no-op default must not allocate on the hot path: the histogram load
// is a pointer check only.
func TestNoObserverZeroAllocOverhead(t *testing.T) {
	eng := New(Options{})
	if n := testing.AllocsPerRun(1000, func() {
		if eng.simHist.Load() != nil {
			t.Fatal("telemetry unexpectedly enabled")
		}
	}); n != 0 {
		t.Errorf("nil telemetry check allocates %v per run, want 0", n)
	}
}

// statBackend reports a fixed stats snapshot.
type statBackend struct {
	memBackend
	stats BackendStats
}

func (b *statBackend) Stats() BackendStats { return b.stats }

// The disk-tier gauges are exported straight from BackendStats. The
// Remote* counters are not exported at all: only the end-to-end
// benchmark's remote client fills them, and it reads them from Stats.
func TestEnableTelemetryBackendMetrics(t *testing.T) {
	be := &statBackend{
		memBackend: memBackend{m: make(map[Key]Eval)},
		stats: BackendStats{
			Entries: 3, Bytes: 4096, Writes: 6, WriteErrors: 1, Quarantined: 2,
			RemoteHits: 7, RemoteMisses: 5, RemoteErrors: 2, RemoteWrites: 9, RemoteDropped: 1,
		},
	}
	eng := New(Options{Backend: be})
	defer eng.Close()
	reg := telemetry.NewRegistry()
	eng.EnableTelemetry(reg)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"xpscalar_eval_disk_entries 3",
		"xpscalar_eval_disk_entries_bytes 4096",
		"xpscalar_eval_disk_writes_total 6",
		"xpscalar_eval_disk_write_errors_total 1",
		"xpscalar_eval_disk_quarantined_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "xpscalar_eval_remote_") {
		t.Errorf("Prometheus text exports a remote-tier metric:\n%s", text)
	}
}
