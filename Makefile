# Development entry points. CI runs `make lint` and the race tests.

GO ?= go

# fuzz-smoke budget per target; CI runs the same thing on every push.
FUZZTIME ?= 30s

.PHONY: all build test race lint scorecard bench-smoke fuzz-smoke obs-smoke router-smoke repl-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the fast CI job, run as is: gofmt must produce no diff, vet must
# pass, and only internal/codec may checksum or decode varints in non-test
# code, so the binary formats keep one framing and one decoder. Query
# scratch is internal/core's to take, so no non-test file of the root
# package may name QueryScratch, HKQueryScratch or sync.Pool. Both searches
# end in `|| true` because a clean tree matches nothing, and grep exits 1
# on no match.
lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	@spine="$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w 'hash/crc32' | grep -v '^kreach/internal/codec:' | cut -d: -f1; \
		grep -rl --include='*.go' --exclude='*_test.go' 'binary\.Uvarint(' . | grep -v '^\./internal/codec/' || true)"; \
	if [ -n "$$spine" ]; then \
		echo "hash/crc32 or binary.Uvarint outside internal/codec:"; echo "$$spine"; exit 1; fi
	@scratch="$$(grep -nE 'QueryScratch|sync\.Pool' $$(ls *.go | grep -v '_test\.go$$') || true)"; \
	if [ -n "$$scratch" ]; then \
		echo "query scratch or a pool in package kreach (internal/core owns it):"; echo "$$scratch"; exit 1; fi

# scorecard runs the paper's §6 claims on the 1/20-scale stand-ins and
# logs one reading per claim; docs/PAPER.md holds the verdict table it
# checks.
scorecard:
	$(GO) test -count=1 -run '^TestPaperClaims$$' -v .

# bench-smoke mirrors the CI benchmark-compile gate: one iteration of every
# benchmark — the word-parallel kernel micro-benchmarks, core's
# BenchmarkBuild, the per-stage split of index construction (cover order,
# row BFS, finalize, load), core's BenchmarkReachBatch, ns/pair of scalar
# Reach in a loop against the staged batch kernel on one and on all workers
# over a 300 k-vertex lattice, then of a dynamic index's scalar Reach and
# one-worker batch on the same graph and pairs (the dynamic/ rungs, one
# command timing both paths), core's BenchmarkEnumerate, ns per ball vertex
# of the cover-source walk and the BFS fallback on the lattice and a
# hub-heavy stand-in, and dynamic's BenchmarkMutate, the local reproduction
# of dynamic.mutate_us_per_edge (batch, collect, repair) — so bench-only
# code cannot rot without failing the build.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/bitvec ./internal/core ./internal/dynamic

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

# fuzz-smoke runs each native fuzz target for $(FUZZTIME) — corrupt
# KRI1/KRH1/KRG1 streams, hostile edge lists, torn/corrupt KRW1
# write-ahead logs and KRF1 replication feeds must error (or recover a
# valid prefix), never crash; /v1/batch request bodies must decode, and
# replies encode, exactly as encoding/json does; the staged ReachBatch
# kernel must answer byte-built graphs and pair lists as scalar Reach does;
# the dynamic index's rows must equal a from-scratch derivation after every
# byte-built mutation batch.
# (Go allows one -fuzz pattern per package invocation.)
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoadAutoIndex -fuzztime=$(FUZZTIME) -run='^$$' .
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) -run='^$$' ./internal/graph
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wal
	$(GO) test -fuzz=FuzzFeedDecode -fuzztime=$(FUZZTIME) -run='^$$' ./internal/wal
	$(GO) test -fuzz='^FuzzBatchRequest$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/server
	$(GO) test -fuzz='^FuzzBatchReply$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/server
	$(GO) test -fuzz=FuzzReachBatch -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	$(GO) test -fuzz=FuzzMutate -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dynamic
