GO ?= go

.PHONY: all build test vet race race-hot bench bench-smoke fuzz-smoke bench-compare fleet-smoke e2ebench-check verify clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot is the focused race gate for the concurrency-heavy packages:
# the evaluation engine, the metrics registry, the span recorder whose
# streaming consumer runs on pool workers, the annealer, the kernel
# packages whose pooled runners concurrent workers arm and disarm, the
# per-technology delay tables that concurrent annealing chains build and
# share, the write-behind disk and remote cache tiers, and the
# multi-tenant job scheduler. Four tests run ten times, because what
# they catch is a rare interleaving: the concurrent-end stream test (a
# torn or lost span line), the two-stores-one-directory test (interleaved
# or quarantined entries, or a file beside the pack, when two stores
# append to one cache directory), the three-stores test (a reader
# serving a torn or unwritten value, or a store opened mid-stream
# indexing a torn entry), and the delay tables' first-build test (a wrong
# answer while goroutines build a technology's table, publish it to the
# one-entry fast path and build its candidate lists).
race-hot:
	$(GO) test -race ./internal/evalengine ./internal/telemetry ./internal/tracing ./internal/explore ./internal/pipeline ./internal/sim ./internal/timing ./internal/evalstore ./internal/evalremote ./internal/xpserve
	$(GO) test -race -count=10 -run '^TestStreamConcurrentEnd$$' ./internal/tracing
	$(GO) test -race -count=10 -run '^(TestTwoStoresOneDirectory|TestThreeStoresOneDirectory)$$' ./internal/evalstore
	$(GO) test -race -count=10 -run '^TestTablesConcurrentFirstBuild$$' ./internal/timing

# bench reports the headline reproduction metrics plus the evaluation
# engine's cache hit rate and sim-latency quantiles (cacheHit%, simP50ms,
# simP95ms), then re-records the kernel benchmark set into
# BENCH_kernel.json (ns/op, allocs/op, and speedup over the recorded
# pre-rework baseline), overwriting the committed recording in the
# working tree.
bench:
	$(GO) test -run '^$$' -bench 'Table4|Table5' -benchtime=1x .
	$(GO) run ./cmd/benchjson -out BENCH_kernel.json -benchtime 20x

# bench-smoke runs every benchmark in the tree exactly once: a cheap guard
# that benchmark code compiles and completes, without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# fuzz-smoke runs every fuzz target on fresh inputs for 10 s each; a plain
# go test only replays their seed corpora under testdata/fuzz. -fuzz takes
# one package and one target per run. A failing input is written to that
# package's testdata/fuzz directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/evalstore
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPack$$' -fuzztime 10s ./internal/evalstore
	$(GO) test -run '^$$' -fuzz '^FuzzLookupRequest$$' -fuzztime 10s ./internal/evalremote
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadOutcomes$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrix$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpans$$' -fuzztime 10s ./internal/tracing
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTraceIntervals$$' -fuzztime 10s ./cmd/xptrace
	$(GO) test -run '^$$' -fuzz '^FuzzExtract$$' -fuzztime 10s ./internal/tracing
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime 10s ./internal/xpserve

# bench-compare runs the kernel benchmark set fresh and diffs it against
# BENCH_kernel.json as the working tree holds it, failing past a 15%
# ns/op regression. After `make bench` (which `make verify` runs) that
# file is this host's own fresh recording, not the committed one, so the
# comparison is the change against itself.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_kernel.json -benchtime 20x

# fleet-smoke is the gate for the remote cache tier. It runs the
# degraded-network suite (dead, hung and dying peers, corrupt records)
# ten times under the race detector, then the multi-process end-to-end
# tests: real xpserved peers serving real xpscalar clients over HTTP — the
# warm/dead-peer cache contract and the cross-process trace-propagation
# contract (pinned trace ID, byte-identical Table 4, one merged Chrome
# trace).
fleet-smoke:
	$(GO) test -race -count=10 ./internal/evalremote
	$(GO) test ./cmd/xpscalar/ -run 'TestFleet' -count=1 -timeout 600s

# e2ebench-check vets and tests the end-to-end benchmark. e2ebench/ is its
# own Go module (it replaces xpscalar with ../), so ./... from the root
# never compiles it; this keeps a change to the exported API from breaking
# the benchmark unnoticed.
e2ebench-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# verify is the pre-merge gate: static checks, a full build, the test
# suite under the race detector, the benchmark module's checks, and one
# pass of the headline reproduction benchmarks (Table 4 exploration,
# Table 5 cross-configuration matrix).
verify: vet build race e2ebench-check bench

clean:
	$(GO) clean ./...
