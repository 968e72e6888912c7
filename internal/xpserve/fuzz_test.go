package xpserve

import (
	"net/http"
	"strings"
	"testing"
)

// hugeChains is a request that once crashed the server: accepted with 202,
// then a makeslice panic in the annealer took the process down.
const hugeChains = `{"kind":"explore","workloads":["gzip"],"iterations":1,"chains":1125899906842624,"short_budget":1000,"long_budget":1000}`

// TestHugeFanOutRejected: requests whose chain or neighborhood fan-out is
// beyond the annealer's bound get a 400 before they take a queue slot.
func TestHugeFanOutRejected(t *testing.T) {
	srv, sched := newTestServer(t, Options{})
	for _, body := range []string{
		hugeChains,
		`{"kind":"matrix","workloads":["gzip"],"neighborhood":1125899906842624}`,
	} {
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
// No input may panic, and every request they accept maps to annealer
// options that pass the annealer's option check.
//
//	go test ./internal/xpserve -run '^$' -fuzz FuzzJobRequest -fuzztime 60s
func FuzzJobRequest(f *testing.F) {
	f.Add(`{"kind":"explore","workloads":["gzip"],"iterations":3,"chains":1,"short_budget":1000,"long_budget":1000}`)
	f.Add(`{"kind":"matrix","workloads":["gzip","mcf"],"iterations":2,"chains":1,"instructions":1500}`)
	f.Add(hugeChains)
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
	})
}
