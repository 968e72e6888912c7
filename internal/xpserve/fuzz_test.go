package xpserve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"xpscalar/internal/workload"
)

// hugeChains is a request that once crashed the server: accepted with 202,
// then a makeslice panic in the annealer took the process down.
const hugeChains = `{"kind":"explore","workloads":["gzip"],"iterations":1,"chains":1125899906842624,"short_budget":1000,"long_budget":1000}`

// hugeBudgets is a request that was accepted and then held a job worker
// for days: a started simulation runs to completion, so neither DELETE
// nor shutdown could stop it.
const hugeBudgets = `{"kind":"explore","workloads":["gzip"],"short_budget":1000000000000,"long_budget":1000000000000}`

// tooManyClusters is a subsetting request that took a queue slot and a
// worker, extracted every suite workload, and only then failed: k-means
// cannot make more clusters than the suite has workloads.
const tooManyClusters = `{"kind":"subsetting","kmeans":12,"instructions":2000}`

// repeatedWorkload is a matrix request that took a worker and ran its
// explorations before the matrix failed: a matrix's rows must be distinct
// workloads.
const repeatedWorkload = `{"kind":"matrix","workloads":["gzip","gzip"],"iterations":1,"chains":1,"short_budget":1000,"long_budget":1000,"instructions":1000}`

// manyWorkloads lists one workload 20,000 times in a 140 KB body, a
// fan-out bounded only by the body size: over HTTP it exceeds
// maxRequestBytes.
var manyWorkloads = `{"kind":"explore","workloads":["gzip"` + strings.Repeat(`,"gzip"`, 19999) + `]}`

// trailingGarbage is a valid request followed by bytes that are not JSON.
const trailingGarbage = `{"kind":"explore"} trailing garbage`

// TestHugeFanOutRejected: requests whose chain or neighborhood fan-out is
// beyond the annealer's bound, whose instruction budget is beyond
// maxBudget, whose k-means asks for more clusters than the suite has
// workloads, that list a workload twice, or that carry data after the
// object, are rejected before they take a queue slot: a 400, or a 413
// for a body over maxRequestBytes.
func TestHugeFanOutRejected(t *testing.T) {
	bodies := []string{
		hugeChains,
		`{"kind":"matrix","workloads":["gzip"],"neighborhood":1125899906842624}`,
		hugeBudgets,
		`{"kind":"matrix","workloads":["gzip"],"instructions":1000000000000}`,
		tooManyClusters,
		repeatedWorkload,
		manyWorkloads,
		trailingGarbage,
	}
	// Checked before any server starts: a huge budget that got through
	// would hold a job worker, and so the test's shutdown, for days.
	for _, body := range bodies {
		if req, err := decodeJobRequest(strings.NewReader(body)); err == nil && validate(req) == nil {
			t.Fatalf("%s: validate accepted it", body)
		}
	}
	srv, sched := newTestServer(t, Options{})
	for _, body := range bodies {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if len(body) > maxRequestBytes {
			want = http.StatusRequestEntityTooLarge
		}
		if resp.StatusCode != want {
			t.Errorf("%.80s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
	if jobs := sched.List(); len(jobs) != 0 {
		t.Fatalf("rejected requests were queued: %+v", jobs)
	}
	// The server is still up and serving.
	if final := await(t, srv, submit(t, srv, tinyExplore()).ID); final.State != StateDone {
		t.Fatalf("follow-up job ended %s (%s)", final.State, final.Error)
	}
}

// TestOversizedSubmitRejected: a submit body over maxRequestBytes gets a
// 413 with a short error, read no further than the bound and never
// decoded. An 8 MB objective name used to be read and decoded whole, and
// then echoed back in full in the 400 that rejected it.
func TestOversizedSubmitRejected(t *testing.T) {
	srv, sched := newTestServer(t, Options{})
	body := `{"kind":"explore","objective":"` + strings.Repeat("a", 8<<20) + `"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	if len(got) >= 1<<10 {
		t.Errorf("response body is %d bytes, want under 1 KiB", len(got))
	}
	if jobs := sched.List(); len(jobs) != 0 {
		t.Fatalf("an oversized request was queued: %+v", jobs)
	}
}

// FuzzJobRequest feeds arbitrary bodies to submit's decode and validation.
// No input may panic, every request they accept maps to annealer options
// that pass the annealer's option check, every budget it accepts is
// within maxBudget, every k-means it accepts is at most the suite size,
// and the workloads it accepts are distinct.
//
//	go test ./internal/xpserve -run '^$' -fuzz FuzzJobRequest -fuzztime 60s
func FuzzJobRequest(f *testing.F) {
	f.Add(`{"kind":"explore","workloads":["gzip"],"iterations":3,"chains":1,"short_budget":1000,"long_budget":1000}`)
	f.Add(`{"kind":"matrix","workloads":["gzip","mcf"],"iterations":2,"chains":1,"instructions":1500}`)
	f.Add(hugeChains)
	f.Add(hugeBudgets)
	f.Add(`{"kind":"explore","chain":2}`)
	f.Add(`{"kind":"subsetting","kmeans":`)
	f.Add(tooManyClusters)
	f.Add(repeatedWorkload)
	f.Add(manyWorkloads)
	f.Add(trailingGarbage)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil || validate(req) != nil {
			return
		}
		opt, err := exploreOptions(req)
		if err != nil {
			t.Fatalf("accepted request %+v maps to options the annealer rejects: %v", req, err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("accepted request %+v: %v", req, err)
		}
		if opt.ShortBudget > maxBudget || opt.LongBudget > maxBudget || req.Instructions > maxBudget {
			t.Fatalf("accepted request %+v has a budget over %d", req, maxBudget)
		}
		if n := len(workload.Suite()); req.KMeans > n {
			t.Fatalf("accepted request %+v asks for more clusters than the %d suite workloads", req, n)
		}
		seen := map[string]bool{}
		for _, name := range req.Workloads {
			if seen[name] {
				t.Fatalf("accepted request %+v lists workload %q twice", req, name)
			}
			seen[name] = true
		}
	})
}
