// Package server implements the kreachd query-serving layer: an HTTP/JSON
// API over a registry of named graph+index datasets, with a single-query
// result cache, a reflection-free batch codec and hot-swappable dataset
// snapshots.
//
// # Endpoints
//
//	POST /v1/reach                    {"graph":"name","s":0,"t":5,"k":3}   single query
//	POST /v1/batch                    {"graph":"name","pairs":[[0,5],[1,2]]} many queries
//	POST /v1/datasets/{name}/reload   rebuild + atomically swap a dataset
//	POST /v1/datasets/{name}/edges    apply edge mutations (mutable datasets)
//	POST /v1/datasets/{name}/compact  merge the overlay into a fresh snapshot
//	GET  /v1/stats                    registry metadata + cache counters
//	GET  /healthz                     liveness probe
//
// "graph" may be omitted when the registry holds a default dataset. "k" is
// only meaningful for per-query-k (multi-rung) datasets (omitted = classic
// reachability); fixed-k datasets answer for the k they were built with and
// reject any other. See docs/API.md for the full request/response
// reference.
//
// # Capability-based dispatch
//
// Every dataset holds one kreach.Reacher — the query paths never see a
// concrete index type. What a dataset can do beyond answering queries is
// discovered through capability accessors: Dataset.Mutable unwraps the
// write path for dynamic datasets, Dataset.PerQueryK detects rung ladders.
// Adding an index variant therefore means implementing kreach.Reacher, not
// growing per-kind switches across handlers; the single remaining per-kind
// branch shapes the optional fields of /v1/stats.
//
// # Cancellation
//
// Handlers propagate the request context into ReachK and the ReachBatch
// worker pool. A client that disconnects mid-batch cancels the remaining
// pairs: workers stop between pairs, the partial answers are discarded
// (never written), and the goroutines are reclaimed instead
// of burning through an abandoned batch.
//
// # The batch path
//
// /v1/batch is the throughput API: decode → validate → ReachBatch →
// encode, with no reflection and no cache. batchwire.go holds its codec —
// a hand-written request decoder held by fuzzing to encoding/json's
// contract, and an append-style reply encoder byte-identical to
// encoding/json's. kreach-router never parses a batch: it forwards the
// body to one replica and returns that replica's reply byte for byte.
// Buffers come from one BatchScratch pool, which the router draws from
// too: a request allocates the same handful of objects at 64 pairs as at
// 4096.
//
// # Caching
//
// /v1/reach results are cached in a sharded LRU (kreach/internal/cache)
// keyed by (epoch, s, t, k) and resolved through singleflight Do — a
// stampede on one hot pair performs a single index probe. Hit/miss/evict/
// collapse counters are surfaced in /v1/stats.
//
// # Snapshot swapping
//
// A Dataset is an immutable snapshot behind an atomically swappable pointer
// (RCU style). Handlers resolve the snapshot once per request, so a reload
// never mixes two snapshots within one response: in-flight requests finish
// against the snapshot they started with, new requests see the replacement.
// Each snapshot's index carries a process-unique epoch, and because cache
// keys embed it, a swap implicitly invalidates every cached answer for the
// dataset — no cache flush, no locking on the hot path.
//
// Every handler is safe for concurrent use because the underlying kreach
// query methods are; /v1/batch rides the library's ReachBatch worker pool
// so a single request saturates the machine.
package server
