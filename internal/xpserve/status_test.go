// Self-status and the liveness/readiness split, exercised over real
// HTTP: self-reports, readiness flips, and per-job trace stamping.

package xpserve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xpscalar/internal/telemetry"
	"xpscalar/internal/tracing"
)

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestSelfStatus: GET /v1/status reports identity, capacity bounds, the
// job census and cache counters of this process.
func TestSelfStatus(t *testing.T) {
	srv, _ := newTestServer(t, Options{MaxJobs: 3, Backlog: 5})
	st := submit(t, srv, tinyExplore())
	await(t, srv, st.ID)

	var self SelfStatus
	if code := getJSON(t, srv.URL+"/v1/status", &self); code != http.StatusOK {
		t.Fatalf("/v1/status: %d", code)
	}
	if self.Tool != "xpserved" || self.PID == 0 || self.GoVersion == "" {
		t.Errorf("identity not reported: %+v", self)
	}
	if self.Capacity.MaxJobs != 3 || self.Capacity.Backlog != 5 {
		t.Errorf("capacity %+v, want bounds 3/5", self.Capacity)
	}
	if self.Jobs.Done != 1 {
		t.Errorf("jobs %+v, want 1 done", self.Jobs)
	}
	if self.Cache.Requests == 0 {
		t.Errorf("cache counters empty after a job: %+v", self.Cache)
	}
}

// newServerFor wires an already-configured scheduler into a test server.
func newServerFor(t *testing.T, sched *Scheduler, reg *telemetry.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(sched.Handler(reg))
	t.Cleanup(func() {
		srv.Close()
		sched.Shutdown()
	})
	return srv
}

// TestReadiness: /readyz is 200 on an idle process, 503 with reasons once
// the backlog saturates or a dependency probe fails, and 503 after
// shutdown — all while /healthz (liveness) stays 200.
func TestReadiness(t *testing.T) {
	srv, sched := newTestServer(t, Options{MaxJobs: 1, Backlog: 1})

	var rd Readiness
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusOK || !rd.Ready {
		t.Fatalf("idle readiness: %d %+v", code, rd)
	}

	// Saturate: one running job plus one occupying the single queue slot.
	slow := tinyExplore()
	slow.Iterations = 100000
	a := submit(t, srv, slow)
	b := submit(t, srv, slow)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rd = Readiness{}
		code := getJSON(t, srv.URL+"/readyz", &rd)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never flipped with a full backlog: %+v", rd)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(rd.Reasons) == 0 || !strings.Contains(rd.Reasons[0], "backlog") {
		t.Errorf("saturated reasons %v, want backlog", rd.Reasons)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("liveness should stay green while saturated")
	} else {
		resp.Body.Close()
	}
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
		await(t, srv, id)
	}

	// A failing dependency probe flips readiness with its name attached.
	sched.SetReadinessProbes(ReadyProbe{Name: "disk", Check: func() error { return io.ErrClosedPipe }})
	rd = Readiness{}
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("failing probe: %d %+v", code, rd)
	}
	if len(rd.Reasons) != 1 || !strings.HasPrefix(rd.Reasons[0], "disk:") {
		t.Errorf("probe reasons %v", rd.Reasons)
	}
	sched.SetReadinessProbes()
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusOK {
		t.Fatalf("probe cleared: %d", code)
	}

	sched.Shutdown()
	rd = Readiness{}
	if code := getJSON(t, srv.URL+"/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("after shutdown: %d %+v", code, rd)
	}
}

// TestJobTraceStamping: every job gets a fleet-unique trace ID that shows
// up in its status, in its event stream's header, and on the stream's root
// "job" span, which parents the work's spans.
func TestJobTraceStamping(t *testing.T) {
	srv, _ := newTestServer(t, Options{})

	st := submit(t, srv, tinyExplore())
	if len(st.TraceID) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", st.TraceID)
	}
	done := await(t, srv, st.ID)
	if done.TraceID != st.TraceID {
		t.Errorf("trace ID changed across states: %q -> %q", st.TraceID, done.TraceID)
	}

	meta, spans := readStream(t, srv, st.ID)
	if meta.TraceID != st.TraceID || meta.Tool != "xpserved" || meta.OriginUnixNs == 0 {
		t.Fatalf("stream header %+v, want the job's trace %s", meta, st.TraceID)
	}

	// The job span roots the work under the job's trace ID.
	var job *tracing.Span
	byID := map[tracing.SpanID]tracing.Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Kind == tracing.KindJob {
			sp := s
			job = &sp
		}
	}
	if job == nil {
		t.Fatal("no job span recorded")
	}
	if job.Trace != st.TraceID || job.Job != st.ID || job.Name != KindExplore || job.Parent != 0 {
		t.Errorf("job span %+v, want root with trace %s job %s", job, st.TraceID, st.ID)
	}
	// Every other span of the stream descends from the job span.
	for _, s := range spans {
		if s.ID == job.ID {
			continue
		}
		for cur := s; cur.Parent != job.ID; {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %+v does not descend from the job span", s)
			}
			cur = p
		}
	}
}
