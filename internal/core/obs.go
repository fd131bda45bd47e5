package core

import (
	"sync/atomic"

	"kreach/internal/graph"
)

// This file is the kernel-side half of the observability layer: package-
// level atomic counters for the batch executor and the enumeration
// dispatch, cheap enough to stay always-on, with exported snapshot
// functions the serving layer re-exports through internal/obs. core itself
// imports nothing beyond the standard library — the exposition format
// lives one layer up.

// Execution-path names, shared by the enumeration counters, the public
// ExecPathReporter capability and the server's slow-query traces. The
// taxonomy is deliberately small: it answers "did this query ride the
// index or fall back to BFS", which is the routing-relevant distinction.
const (
	// PathCacheHit: answered from the serving layer's result cache (only
	// the server can classify this; the kernels never see cache hits).
	PathCacheHit = "cache-hit"
	// PathCoverRow: answered through the index's cover rows (Algorithm 2
	// lookups, row sweeps).
	PathCoverRow = "cover-row"
	// PathBFSFallback: answered by the exact bounded-BFS fallback (non-
	// cover enumeration sources, (h,k) balls, off-rung ladder bounds, the
	// dynamic overlay).
	PathBFSFallback = "bfs-fallback"
)

// Enumeration path counter slots (indexes into enumPathCounts).
const (
	pathIdxCoverRow = iota
	pathIdxBFSFallback
	numPathIdx
)

var enumPathCounts [numPathIdx]atomic.Uint64

// pathTally batches enumeration-path counts in per-goroutine scratch so
// the hot path pays one plain increment per ball, not one atomic RMW: a
// ball off a warm cover row costs ~50ns, where an atomic add alone would
// be a >10% tax. Tallies flush to the package counters every
// tallyFlushEvery observations; residue parked in pooled scratch (< one
// flush window) surfaces on the scratch's next use, so the counters lag
// by at most a few dozen balls — noise at serving rates.
type pathTally struct {
	counts [numPathIdx]uint32
}

const tallyFlushEvery = 32

func (t *pathTally) bump(idx int) {
	c := t.counts[idx] + 1
	if c >= tallyFlushEvery {
		enumPathCounts[idx].Add(uint64(c))
		c = 0
	}
	t.counts[idx] = c
}

// EnumMetrics is a snapshot of the enumeration path counters.
type EnumMetrics struct {
	CoverRow    uint64 // balls answered from cover rows
	BFSFallback uint64 // balls answered by the bounded-BFS fallback
}

// ReadEnumMetrics returns the cumulative enumeration path counts.
func ReadEnumMetrics() EnumMetrics {
	return EnumMetrics{
		CoverRow:    enumPathCounts[pathIdxCoverRow].Load(),
		BFSFallback: enumPathCounts[pathIdxBFSFallback].Load(),
	}
}

// Batch-executor counters. Per-run and per-worker granularity (never
// per-pair): one BatchEval run adds a handful of atomics no matter how
// many million pairs it carries.
var (
	batchRuns   atomic.Uint64
	batchPairs  atomic.Uint64
	batchSteals atomic.Uint64
)

// batchWorkerSlots bounds the per-worker busy-time accounting; worker w of
// a run accumulates into slot w mod batchWorkerSlots. Runs rarely exceed
// GOMAXPROCS workers, so slots alias only on >64-way hosts.
const batchWorkerSlots = 64

var batchWorkerBusyNs [batchWorkerSlots]atomic.Int64

// BatchMetrics is a snapshot of the batch-executor counters.
type BatchMetrics struct {
	Runs   uint64 // BatchEval invocations
	Pairs  uint64 // total pairs submitted across runs
	Steals uint64 // successful region steals (work imbalance indicator)
	// WorkerBusyNs[w] is the cumulative wall time worker slot w spent
	// inside evalRange loops; utilization per worker = busy/elapsed.
	WorkerBusyNs [batchWorkerSlots]int64
}

// ReadBatchMetrics returns the cumulative batch-executor counters.
func ReadBatchMetrics() BatchMetrics {
	m := BatchMetrics{
		Runs:   batchRuns.Load(),
		Pairs:  batchPairs.Load(),
		Steals: batchSteals.Load(),
	}
	for i := range batchWorkerBusyNs {
		m.WorkerBusyNs[i] = batchWorkerBusyNs[i].Load()
	}
	return m
}

// EnumPath reports which execution path Enumerate takes for src in the
// given direction, without running it. It mirrors the Enumerate dispatch
// exactly; keep the two in sync.
func (ix *Index) EnumPath(src graph.Vertex, _ graph.Direction) string {
	if !ix.InCover(src) {
		return PathBFSFallback
	}
	return PathCoverRow
}

// ReachPath reports which execution path Reach(s, t) takes: always the
// cover rows. Pairwise queries never fall back to BFS — every Algorithm 2
// case is an index lookup.
func (ix *Index) ReachPath(graph.Vertex, graph.Vertex) string { return PathCoverRow }

// EnumPath reports the (h,k) enumeration path: always the BFS fallback
// (the blurred (h,k) weights cannot place the within/frontier boundary).
func (ix *HKIndex) EnumPath(graph.Vertex, graph.Direction) string { return PathBFSFallback }

// ReachPath reports the (h,k) pairwise path: h-hop neighborhood expansion
// over index arcs, classified as cover-row work.
func (ix *HKIndex) ReachPath(graph.Vertex, graph.Vertex) string { return PathCoverRow }

// EnumPath reports the ladder's enumeration path for hop bound k: the
// selected rung's path when k lands on one, the BFS fallback between
// rungs.
func (m *MultiIndex) EnumPath(src graph.Vertex, k int, dir graph.Direction) string {
	if k < 0 || k >= m.g.NumVertices()-1 {
		return m.unbnd.EnumPath(src, dir)
	}
	if ix, ok := m.byK[k]; ok {
		return ix.EnumPath(src, dir)
	}
	return PathBFSFallback
}

// ReachPath reports the ladder's pairwise path for any hop bound: every
// rung, and every rung pair between them, answers through cover rows.
func (m *MultiIndex) ReachPath(graph.Vertex, graph.Vertex) string { return PathCoverRow }
