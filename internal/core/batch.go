package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kreach/internal/graph"
)

// This file adds the batch query path shared by the kreachd server, the
// public library and the bench harness: a worker pool that answers many
// (s, t) queries at once, reusing one QueryScratch per worker so the hot
// loop stays allocation-free no matter how large the batch is.
//
// The pool is context-aware: workers poll ctx.Done() between pairs (at a
// small stride, so the check amortizes to well under a nanosecond per
// query) and stop claiming work once the context is cancelled. A cancelled
// batch returns the partially filled result slice together with ctx.Err();
// an uncancellable context (Done() == nil, e.g. context.Background()) takes
// a checking-free fast path, so callers that do not need cancellation pay
// nothing for it.

// Pair is one (s, t) query of a batch.
type Pair struct {
	S, T graph.Vertex
}

// batchChunk is the number of pairs a worker claims per region CAS. Large
// enough to amortize the atomic, small enough that skewed per-query costs
// (Case 1 lookups vs Case 4 intersections) still balance under stealing.
const batchChunk = 256

// cancelStride is how many pairs a worker answers between ctx.Done() polls.
// A non-blocking channel receive costs a few nanoseconds; striding it keeps
// the per-query overhead negligible while still bounding cancellation
// latency to a few dozen microseconds of query work. It is also the staged
// kernel's sub-range (stage.go), which sizes that kernel's per-pair queues.
const cancelStride = 64

// batchWorkers resolves a parallelism request like Options.Parallelism:
// 0 means GOMAXPROCS, 1 means sequential; never more workers than jobs.
func batchWorkers(parallelism, jobs int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if chunks := (jobs + batchChunk - 1) / batchChunk; w > chunks {
		w = chunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cancelled is the strided non-blocking ctx.Done() poll. A nil channel
// (uncancellable context) is never ready.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// chunkRegion is one worker's deque of pending chunk indices, packed as
// hi<<32 | lo in a single atomic word so a claim (front) and a steal (back)
// are each one CAS with no lock. Both ends only ever move inward — work
// strictly shrinks — which is what makes the executor's termination scan
// sound.
type chunkRegion struct {
	bounds atomic.Uint64
	// Pad to a cache line so neighboring workers' CAS traffic does not
	// false-share.
	_ [7]uint64
}

func packRegion(lo, hi uint32) uint64       { return uint64(hi)<<32 | uint64(lo) }
func unpackRegion(b uint64) (lo, hi uint32) { return uint32(b), uint32(b >> 32) }

// BatchEval runs evalRange over a partition of [0, n) with a work-stealing
// worker pool. The chunk space is pre-split into one contiguous region per
// worker; a worker claims chunks off the front of its own region (good
// locality, zero contention while regions last) and, when it runs dry,
// steals the back half of the largest remaining region. Stealing in bulk —
// half a region, not one chunk — keeps a thief off the victim's cache line
// for as long as possible, which is what the previous single shared cursor
// could not do: every claim by every worker bounced the same hot word.
//
// Each worker gets its own scratch from newScratch, so evalRange may mutate
// it freely. Ranges (not single indexes) keep the indirect call off the
// per-query hot path; cancellation is polled between sub-ranges of
// cancelStride pairs, never mid-pair.
//
// On cancellation BatchEval stops promptly and returns ctx.Err(); ranges
// already evaluated keep their results (cooperative partial completion).
// It is exported for the other index implementations in this module
// (internal/dynamic) — not part of the public API.
func BatchEval[S any](ctx context.Context, n, parallelism int, newScratch func() S, evalRange func(lo, hi int, sc S)) error {
	workers := batchWorkers(parallelism, n)
	done := ctx.Done()
	// Executor metrics are per-run and per-worker, never per-pair: a few
	// atomics here are invisible against even a single-chunk batch.
	batchRuns.Add(1)
	batchPairs.Add(uint64(n))
	if done == nil && workers == 1 {
		start := time.Now()
		evalRange(0, n, newScratch())
		batchWorkerBusyNs[0].Add(time.Since(start).Nanoseconds())
		return nil
	}
	// evalCtx evaluates [lo, hi) with cancellation polls every cancelStride
	// pairs, reporting false once the context is cancelled. With a nil done
	// channel the poll never fires and the loop degenerates to one call.
	evalCtx := func(lo, hi int, sc S) bool {
		for s := lo; s < hi; s += cancelStride {
			if cancelled(done) {
				return false
			}
			e := s + cancelStride
			if e > hi {
				e = hi
			}
			evalRange(s, e, sc)
		}
		return true
	}
	if workers == 1 {
		start := time.Now()
		evalCtx(0, n, newScratch())
		batchWorkerBusyNs[0].Add(time.Since(start).Nanoseconds())
		return ctx.Err()
	}

	chunks := uint32((n + batchChunk - 1) / batchChunk)
	regions := make([]chunkRegion, workers)
	for w := 0; w < workers; w++ {
		lo := uint32(uint64(w) * uint64(chunks) / uint64(workers))
		hi := uint32(uint64(w+1) * uint64(chunks) / uint64(workers))
		regions[w].bounds.Store(packRegion(lo, hi))
	}
	// evalChunk answers chunk c's pair range, reporting false on cancellation.
	evalChunk := func(c uint32, sc S) bool {
		lo := int(c) * batchChunk
		hi := lo + batchChunk
		if hi > n {
			hi = n
		}
		if done == nil {
			evalRange(lo, hi, sc)
			return true
		}
		return evalCtx(lo, hi, sc)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			start := time.Now()
			defer func() {
				batchWorkerBusyNs[self%batchWorkerSlots].Add(time.Since(start).Nanoseconds())
			}()
			sc := newScratch()
			own := &regions[self]
			for {
				// Drain the front of our own region.
				for {
					b := own.bounds.Load()
					lo, hi := unpackRegion(b)
					if lo >= hi {
						break
					}
					if !own.bounds.CompareAndSwap(b, packRegion(lo+1, hi)) {
						continue // a thief moved hi; re-read
					}
					if !evalChunk(lo, sc) {
						return
					}
				}
				// Own region dry: steal the back half of the largest
				// remaining region. A failed CAS means the victim's bounds
				// moved; rescan, since the best victim may have changed.
				stole := false
				for !stole {
					victim, best := -1, uint32(0)
					for i := range regions {
						if i == self {
							continue
						}
						lo, hi := unpackRegion(regions[i].bounds.Load())
						if hi-lo > best && lo < hi {
							victim, best = i, hi-lo
						}
					}
					if victim < 0 {
						return // every region empty: batch drained
					}
					if cancelled(done) {
						return
					}
					b := regions[victim].bounds.Load()
					lo, hi := unpackRegion(b)
					if lo >= hi {
						continue // drained between scan and load
					}
					take := (hi - lo + 1) / 2
					if regions[victim].bounds.CompareAndSwap(b, packRegion(lo, hi-take)) {
						// The stolen chunks are invisible during this window
						// (removed from the victim, not yet in our region);
						// a worker scanning now may exit early, but the
						// chunks stay owned by us and wg.Wait covers them.
						own.bounds.Store(packRegion(hi-take, hi))
						batchSteals.Add(1)
						stole = true
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// ReachBatch answers every pair with the index, using `parallelism` workers
// (0 = GOMAXPROCS, 1 = sequential). Results are positionally aligned with
// pairs. Each worker runs the staged kernel of stage.go, which answers the
// same as Reach pair for pair. If ctx is cancelled mid-batch the pool stops
// between sub-ranges of cancelStride pairs and returns the partially filled
// slice together with ctx.Err(); entries not yet evaluated hold the zero
// value. Safe for concurrent use, including concurrently with Reach.
func (ix *Index) ReachBatch(ctx context.Context, pairs []Pair, parallelism int) ([]bool, error) {
	out := make([]bool, len(pairs))
	err := BatchEval(ctx, len(pairs), parallelism, NewQueryScratch, func(lo, hi int, sc *QueryScratch) {
		for s := lo; s < hi; s += cancelStride {
			e := min(s+cancelStride, hi)
			ix.reachStaged(pairs[s:e], out[s:e], sc)
		}
	})
	return out, err
}

// ReachBatch answers every pair with the (h,k)-reach index, using
// `parallelism` workers (0 = GOMAXPROCS, 1 = sequential). Cancellation
// semantics as in Index.ReachBatch.
func (ix *HKIndex) ReachBatch(ctx context.Context, pairs []Pair, parallelism int) ([]bool, error) {
	out := make([]bool, len(pairs))
	err := BatchEval(ctx, len(pairs), parallelism, func() *HKQueryScratch { return NewHKQueryScratch(ix) },
		func(lo, hi int, sc *HKQueryScratch) {
			for i := lo; i < hi; i++ {
				out[i] = ix.Reach(pairs[i].S, pairs[i].T, sc)
			}
		})
	return out, err
}

// ReachBatch answers every pair for hop bound k with the ladder, using
// `parallelism` workers (0 = GOMAXPROCS, 1 = sequential). Cancellation
// semantics as in Index.ReachBatch.
func (m *MultiIndex) ReachBatch(ctx context.Context, pairs []Pair, k, parallelism int) ([]MultiResult, error) {
	out := make([]MultiResult, len(pairs))
	err := BatchEval(ctx, len(pairs), parallelism, NewQueryScratch, func(lo, hi int, sc *QueryScratch) {
		for i := lo; i < hi; i++ {
			out[i] = m.Reach(pairs[i].S, pairs[i].T, k, sc)
		}
	})
	return out, err
}
