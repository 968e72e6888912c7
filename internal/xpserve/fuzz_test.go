package xpserve

import (
	"net/http"
	"strings"
	"testing"
)

// hugeChains is a request that once crashed the server: accepted with 202,
// then a makeslice panic in the annealer took the process down.
const hugeChains = `{"kind":"explore","workloads":["gzip"],"iterations":1,"chains":1125899906842624,"short_budget":1000,"long_budget":1000}`

// hugeBudgets is a request that was accepted and then held a job worker
// for days: a started simulation runs to completion, so neither DELETE
// nor shutdown could stop it.
const hugeBudgets = `{"kind":"explore","workloads":["gzip"],"short_budget":1000000000000,"long_budget":1000000000000}`

// TestHugeFanOutRejected: requests whose chain or neighborhood fan-out is
// beyond the annealer's bound, or whose instruction budget is beyond
// maxBudget, get a 400 before they take a queue slot.
func TestHugeFanOutRejected(t *testing.T) {
	bodies := []string{
		hugeChains,
		`{"kind":"matrix","workloads":["gzip"],"neighborhood":1125899906842624}`,
		hugeBudgets,
		`{"kind":"matrix","workloads":["gzip"],"instructions":1000000000000}`,
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
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
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

// FuzzJobRequest feeds arbitrary bodies to submit's decode and validation.
// No input may panic, every request they accept maps to annealer options
// that pass the annealer's option check, and every budget it accepts is
// within maxBudget.
//
//	go test ./internal/xpserve -run '^$' -fuzz FuzzJobRequest -fuzztime 60s
func FuzzJobRequest(f *testing.F) {
	f.Add(`{"kind":"explore","workloads":["gzip"],"iterations":3,"chains":1,"short_budget":1000,"long_budget":1000}`)
	f.Add(`{"kind":"matrix","workloads":["gzip","mcf"],"iterations":2,"chains":1,"instructions":1500}`)
	f.Add(hugeChains)
	f.Add(hugeBudgets)
	f.Add(`{"kind":"explore","chain":2}`)
	f.Add(`{"kind":"subsetting","kmeans":`)
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
	})
}
