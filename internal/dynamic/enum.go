package dynamic

import (
	"context"

	"kreach/internal/core"
	"kreach/internal/graph"
)

// Neighborhood enumeration against the live (overlay-applied) edge set.
// The dynamic index runs core's BFS fallback over the base CSR with the
// DeltaGraph's overlay applied, and holds the read lock for the whole
// traversal: the enumerated ball is a consistent snapshot of one epoch —
// a mutation batch either precedes the whole ball or follows it, never
// lands in the middle. (ReachBatch makes the same trade for a whole batch
// of pairs; balls are bounded by k, so writers wait at most one bounded
// traversal.) The cover walk of core's static enumeration is not used:
// its fringe lists and transposed rows are derived once from one cover and
// one CSR and cannot follow the promotions and per-row slices a mutation
// rewrites.

// Enumerate materializes the k-hop ball around src on the live edge set
// (source excluded, EnumOptions.Limit applied) and returns the members, the
// full ball size and the epoch the ball belongs to — read under the same
// read lock as the traversal, so the ball is exactly the k-hop ball of the
// edge set at that epoch. The hop bound is the index's own k. Safe for
// concurrent use, including concurrently with Mutate; pass nil scratch to
// allocate internally. ctx is polled between frontier levels — a
// cancelled enumeration releases the read lock promptly and returns
// ctx.Err().
func (ix *Index) Enumerate(ctx context.Context, src graph.Vertex, opts core.EnumOptions, sc *core.EnumScratch) ([]core.Neighbor, int, uint64, error) {
	if sc == nil {
		sc = core.NewEnumScratch()
	}
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	if err := core.BFSFallback(ctx, ix.dg.base, &ix.dg.ov, src, ix.k, opts.Direction, sc); err != nil {
		return nil, 0, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, ix.epoch.Load(), nil
}

// EnumPath reports the dynamic enumeration path: always the BFS fallback
// (the ball is walked over the overlay, never read from index rows).
func (ix *Index) EnumPath(graph.Vertex, graph.Direction) string { return core.PathBFSFallback }

// ReachPath reports the dynamic pairwise path: Algorithm 2 over the
// overlay-patched cover rows, classified as cover-row work.
func (ix *Index) ReachPath(graph.Vertex, graph.Vertex) string { return core.PathCoverRow }
