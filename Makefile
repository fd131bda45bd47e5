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

# INLINE_PINS are the inlining decisions the query path's speed rests on,
# as caller:callee in the names `go build -gcflags=-m=2` prints: the row
# pick and the arc search inline into arcWeight, and the overlay and
# adjacency reads into Reach and its scratch half (reachScratch, case4).
# searchArcs sits at 79 of the inliner's budget of 80, so one token more
# stops it silently. INLINE_CALLERS maps each "inlining call to" line to
# the function whose "can inline"/"cannot inline" line comes last before
# it in the same file, so the pins name functions, not line numbers.
INLINE_PINS = '(*Index).arcWeight:(*Index).row' '(*Index).arcWeight:searchArcs' \
	'(*Index).Reach:graph.(*Overlay).IsDirty' '(*Index).Reach:graph.(*Graph).InNeighbors' \
	'(*Index).Reach:graph.(*Graph).OutNeighbors' '(*Index).reachScratch:graph.(*Overlay).Clean' \
	'(*Index).case4:graph.(*Overlay).Clean'
INLINE_CALLERS = / (can|cannot) inline / { split($$1, a, ":"); fn = $$0; sub(/.* inline /, "", fn); \
	sub(/(:| with cost).*/, "", fn); decl[a[1] SUBSEP a[2]] = fn } \
	/: inlining call to / { split($$1, a, ":"); n++; file[n] = a[1]; line[n] = a[2] + 0; callee[n] = $$NF } \
	END { for (i = 1; i <= n; i++) { best = 0; caller = ""; for (k in decl) { split(k, b, SUBSEP); \
	if (b[1] == file[i] && b[2] + 0 <= line[i] && b[2] + 0 > best) { best = b[2] + 0; caller = decl[k] } } \
	print caller ":" callee[i] } }

# lint is the fast CI job, run as is: gofmt must produce no diff, vet must
# pass, and only internal/codec may checksum or decode varints in non-test
# code, so the binary formats keep one framing and one decoder. Query
# scratch is internal/core's to take, so no non-test file of the root
# package may name QueryScratch, HKQueryScratch or sync.Pool. Both searches
# end in `|| true` because a clean tree matches nothing, and grep exits 1
# on no match. Every INLINE_PINS call site must still inline.
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
	@inlined="$$($(GO) build -gcflags=-m=2 ./internal/core ./internal/graph 2>&1 | awk '$(INLINE_CALLERS)')"; \
	missing=""; for pin in $(INLINE_PINS); do \
		printf '%s\n' "$$inlined" | grep -qxF "$$pin" || missing="$$missing $$pin"; done; \
	if [ -n "$$missing" ]; then echo "no longer inlined (caller:callee):$$missing"; exit 1; fi

# scorecard runs the paper's §6 claims on the 1/20-scale stand-ins and
# logs one reading per claim; docs/PAPER.md holds the verdict table it
# checks.
scorecard:
	$(GO) test -count=1 -run '^TestPaperClaims$$' -v .

# bench-smoke mirrors the CI benchmark-compile gate: one iteration of every
# benchmark — bitvec's row-scan micro-benchmark (CountLEMasked), core's
# BenchmarkBuild, the per-stage split of index construction (cover order,
# row BFS, finalize, load), core's BenchmarkReachBatch, ns/pair of scalar
# Reach in a loop against the staged batch kernel on one and on all workers
# over a 300 k-vertex lattice, then of a dynamic index's scalar Reach and
# one-worker batch on the same graph and pairs (the dynamic/ rungs, one
# command timing both paths), and of that batch again once the index has
# taken a sliding window of 32-add, 32-remove batches (dynamic/batch/p=1/
# mutated: relaxed rows, dirty lists, promotions), core's
# BenchmarkEnumerate, ns per ball vertex
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
# (Go allows one -fuzz pattern per package invocation.) After each target
# its last "fuzz: elapsed … execs … new interesting …" line is printed, so
# a target that has stopped finding new inputs shows; a failing target
# prints its whole output and fails the make target. The output goes to a
# file, not a pipe, because /bin/sh has no reliable pipefail. Each target
# minimizes a new input for 1 s, not Go's default 60 s: at the default a
# target that finds many new inputs (FuzzLoadAutoIndex reseals every
# input so most mutants reach the decoders; FuzzReachBatch, FuzzWALReplay
# and FuzzReadEdgeList too) spends the rest of its budget minimizing a
# handful of them at 0 execs/s.
fuzz-smoke:
	@for target in 'FuzzLoadAutoIndex .' 'FuzzReadEdgeList ./internal/graph' 'FuzzWALReplay ./internal/wal' \
		'FuzzFeedDecode ./internal/wal' '^FuzzBatchRequest$$ ./internal/server' '^FuzzBatchReply$$ ./internal/server' \
		'FuzzReachBatch ./internal/core' 'FuzzMutate ./internal/dynamic'; do \
		set -- $$target; out="$$(mktemp)"; \
		if $(GO) test -fuzz="$$1" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' "$$2" >"$$out" 2>&1; then \
			echo "$$1 $$2: $$(grep 'fuzz: elapsed' "$$out" | tail -n 1)"; rm -f "$$out"; \
		else cat "$$out"; rm -f "$$out"; exit 1; fi; \
	done
