GO ?= go

.PHONY: all build test vet race race-hot bench bench-smoke fuzz-smoke bench-compare e2ebench-check verify clean

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
# share, the write-behind disk cache tier, and the multi-tenant job
# scheduler. Four tests run ten times, because what they catch is a rare
# interleaving: the concurrent-end stream test (a torn or lost span
# line), the two-stores-one-directory test (interleaved or quarantined
# entries, or a file beside the pack, when two stores append to one cache
# directory), the three-stores test (a reader serving a torn or unwritten
# value, or a store opened mid-stream indexing a torn entry), and the
# delay tables' first-build test (a wrong answer while goroutines build a
# technology's table, publish it to the one-entry fast path and build its
# candidate lists). The remote cache client, which only the end-to-end
# benchmark's explore-warm-remote workload still uses, runs its whole
# degraded-network suite (dead, hung and dying peers, corrupt records)
# ten times.
race-hot:
	$(GO) test -race ./internal/evalengine ./internal/telemetry ./internal/tracing ./internal/explore ./internal/pipeline ./internal/sim ./internal/timing ./internal/evalstore ./internal/xpserve
	$(GO) test -race -count=10 -run '^TestStreamConcurrentEnd$$' ./internal/tracing
	$(GO) test -race -count=10 -run '^(TestTwoStoresOneDirectory|TestThreeStoresOneDirectory)$$' ./internal/evalstore
	$(GO) test -race -count=10 -run '^TestTablesConcurrentFirstBuild$$' ./internal/timing
	$(GO) test -race -count=10 ./internal/evalremote

# bench reports the headline reproduction metrics plus the evaluation
# engine's cache hit rate and sim-latency quantiles (cacheHit%, simP50ms,
# simP95ms).
bench:
	$(GO) test -run '^$$' -bench 'Table4|Table5' -benchtime=1x .

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
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime 10s ./internal/xpserve

# bench-compare is the kernel speed gate. It checks BASE (default HEAD~1,
# the parent commit) out into a temporary git worktree, and cmd/benchjson
# runs the kernel benchmark set there and in the working tree, interleaved
# on this host, failing when the working tree's ns/op is more than 15%
# above the parent's (40% for the loopback remote hit). The worktree is
# removed whether the gate passes or fails.
BASE ?= HEAD~1
bench-compare:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"; git worktree prune' EXIT && \
	git worktree add --detach --quiet "$$dir" $(BASE) && \
	$(GO) run ./cmd/benchjson -base "$$dir"

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
