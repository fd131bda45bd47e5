# Development entry points. CI runs `make lint` and the race tests; the
# bench targets regenerate the numbers the docs cite so they stay
# reproducible (docs/BENCH.md records the exact command used).

GO ?= go

# Small-scale bench parameters: 1/20-size datasets, 10k queries. Big enough
# for stable relative numbers, small enough to finish in about a minute.
BENCH_SCALE   ?= 20
BENCH_QUERIES ?= 10000

# bench-json datasets: one per structural family keeps the trajectory
# comparable commit-to-commit without a full 15-dataset run.
BENCH_JSON_DATASETS ?= AgroCyc,CiteSeer,Xmark

# fuzz-smoke budget per target; CI runs the same thing on every push.
FUZZTIME ?= 30s

.PHONY: all build test race lint bench-tables bench-cache bench-smoke bench-json fuzz-smoke obs-smoke router-smoke repl-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint mirrors the fast CI job: gofmt must produce no diff, vet must pass.
lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

# bench-tables regenerates docs/BENCH.md (Tables 2-9 + batch + cache).
bench-tables:
	@{ \
		set -e; \
		echo "# Benchmark tables"; \
		echo; \
		echo "Regenerated with \`make bench-tables\` (scale $(BENCH_SCALE),"; \
		echo "$(BENCH_QUERIES) queries — relative numbers, not paper scale;"; \
		echo "use \`kbench -scale 1 -queries 1000000\` for the full run)."; \
		echo "Batch-scaling rows are bounded by the host's GOMAXPROCS:"; \
		echo "on a single-CPU runner extra workers cannot multiply"; \
		echo "throughput (BENCH_kreach.json records gomaxprocs for this)."; \
		echo; \
		echo "Known variance: the neighbors enum_speedup column is noisy on"; \
		echo "1-core hosts — at bench scale each timed pass covers ~1000"; \
		echo "balls in under a millisecond, so scheduler jitter dominates."; \
		echo "The 0.42x AgroCyc outlier archived at the telemetry PR was"; \
		echo "investigated and is measurement noise, not a regression:"; \
		echo "same-commit repeats span 0.84x-1.74x, the outlier's anomaly"; \
		echo "was a one-off 3x-fast BFS *baseline* draw (the index side was"; \
		echo "in range), and that PR's only enumeration-path change is one"; \
		echo "batched per-call tally increment. Trust the sign of this"; \
		echo "column only at -scale 1 workloads."; \
		echo; \
		echo '```'; \
		$(GO) run ./cmd/kbench -table all -scale $(BENCH_SCALE) -queries $(BENCH_QUERIES); \
		echo '```'; \
	} > docs/BENCH.md
	@echo "wrote docs/BENCH.md"

# bench-cache runs the cached-vs-uncached acceptance benchmark.
bench-cache:
	$(GO) test ./internal/bench -bench 'ReachCached|ReachUncached' -benchtime 2s -run XXX

# bench-smoke mirrors the CI benchmark-compile gate: one iteration of every
# benchmark — the harness suite, the word-parallel kernel micro-benchmarks,
# core's BenchmarkBuild, the per-stage split of index construction (cover
# order, row BFS, finalize, load), and dynamic's BenchmarkMutate, the local
# reproduction of dynamic.mutate_us_per_edge (batch, collect, repair) — so
# bench-only code cannot rot without failing the build.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/bench ./internal/bitvec ./internal/core ./internal/dynamic

# obs-smoke is the observability e2e gate: build the real kreachd, boot it
# on an ephemeral port, scrape GET /metrics and assert the exposition
# parses and carries every family in server.MetricCatalog (the contract
# docs/OBSERVABILITY.md documents), plus a live slow-query trace.
obs-smoke:
	$(GO) test ./cmd/kreachd -run TestObsSmoke -v

# router-smoke is the distributed-tier e2e gate: build the real kreachd and
# kreach-router binaries, boot three replicas plus the router, SIGKILL one
# replica under live batch load, and require zero wrong answers (every 200
# matches a single-replica oracle, every failure carries a typed code),
# recovery by re-routing, and a rolling reload with zero non-2xx answers.
router-smoke:
	$(GO) test ./cmd/kreach-router -run TestRouterSmoke

# repl-smoke is the replication e2e gate: boot a durable primary, a durable
# and an in-memory follower (-follow) and the router, SIGKILL the durable
# follower mid-stream, keep mutating through the router, and require the
# restarted follower to resume from its own journal, catch up to the
# primary's exact epoch (readiness gated on it), record nonzero-then-zero
# replication lag, and answer every routed batch bit-for-bit like the
# primary — zero wrong answers.
repl-smoke:
	$(GO) test ./cmd/kreachd -run TestReplSmoke

# bench-json writes the machine-readable benchmark trajectory
# (reach/batch/cached/mutate/mutate-durable/neighbors/latency); CI uploads
# it as an artifact so every commit carries its own performance snapshot.
bench-json:
	$(GO) run ./cmd/kbench -json BENCH_kreach.json \
		-scale $(BENCH_SCALE) -queries $(BENCH_QUERIES) -datasets $(BENCH_JSON_DATASETS)
	@echo "wrote BENCH_kreach.json"

# fuzz-smoke runs each native fuzz target for $(FUZZTIME) — corrupt
# KRI1/KRH1/KRG1 streams, hostile edge lists, and torn/corrupt KRW1
# write-ahead logs must error (or recover a valid prefix), never crash.
# (Go allows one -fuzz pattern per package invocation.)
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoadAutoIndex -fuzztime=$(FUZZTIME) -run='^$$' .
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) -run='^$$' ./internal/graph
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wal
