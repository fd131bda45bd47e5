package core

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"kreach/internal/graph"
)

// This file is the neighborhood-enumeration engine: instead of asking
// whether one pair (s, t) is k-hop reachable (Algorithm 2), it answers the
// paper's title question directly — *who* is in s's small world — by
// materializing the whole k-hop ball around a vertex.
//
// Two evaluation strategies share one output contract:
//
//   - the bounded frontier BFS (BFSFallback: graph.BFS over the CSR graph,
//     or over the dynamic overlay), the exact fallback that works for every
//     variant and direction; and
//   - a cover-arc accelerated path on the plain index (Index.Enumerate,
//     from a cover endpoint, either direction): the endpoint's index row —
//     forward CSR for "whom does s reach", the finalize-built transposed
//     CSR for "who reaches t" — already lists every cover vertex of the
//     ball with its weight bucket, and — because every non-cover vertex
//     has ALL its neighbors in the cover — one adjacency sweep over the
//     row's ≤k-1 entries completes the fringe. Each arc carries its
//     weight bucket in the same 4 bytes as its target, so one pass over
//     the row classifies the ball's cover portion. One walk serves both
//     directions through a per-direction view of the index.
//
// The accelerated path is used only where the 2-bit weight buckets prove
// the exact answer. From a non-cover endpoint the buckets are shifted by
// one hop and no longer align with the k-1/k boundary, and the (h,k) index
// blurs that boundary further (bucketed low weights plus up-to-h hops of
// slack on each side — the same reason HKIndex answers only its own k
// pairwise), so those cases run the BFS fallback.

// DistBucket classifies a ball member's shortest distance from the source
// relative to the hop bound k. Only the bucket — not the exact distance —
// is reported: it is what the index's 2-bit arc weights can prove without
// re-running a BFS, and it answers the questions set queries ask (strictly
// inside the ball vs. on its rim).
type DistBucket uint8

const (
	// BucketWithin: 0 < dist ≤ k-1 (strictly inside the ball; for an
	// Unbounded enumeration every reachable vertex is Within).
	BucketWithin DistBucket = iota
	// BucketFrontier: dist == k exactly (on the ball's rim; unreachable in
	// one hop fewer).
	BucketFrontier
)

func (b DistBucket) String() string {
	switch b {
	case BucketWithin:
		return "within"
	case BucketFrontier:
		return "frontier"
	}
	return "?"
}

// Neighbor is one ball member: a vertex and its distance bucket. The source
// itself (distance 0) is never listed.
type Neighbor struct {
	V      graph.Vertex
	Bucket DistBucket
}

// EnumOptions configures one enumeration.
type EnumOptions struct {
	// Direction selects the ball: Forward enumerates the vertices the
	// source reaches within k hops (ReachFrom), Backward the vertices that
	// reach it (ReachInto).
	Direction graph.Direction
	// Limit caps the returned slice (0 = no cap). The pre-truncation ball
	// size is always reported alongside the slice.
	Limit int
	// SortByDistance orders the result bucket-major (within before
	// frontier), vertex-id-minor — nearest first, deterministically. The
	// default order is the evaluation order, which is deterministic for a
	// fixed index state but unspecified across variants.
	SortByDistance bool
}

// EnumScratch holds reusable per-goroutine enumeration state — the BFS
// engine, whose visited bitmap also dedups the cover path's fringe, plus
// output staging; create one per goroutine or borrow one from the package
// pool with GetEnumScratch. Buffers grow lazily to the graph size on first
// use.
type EnumScratch struct {
	bfs   graph.BFS
	out   []Neighbor
	near  []int32   // cover-path staging: ≤k-2 sweep sources, as cover ids
	rim   []int32   // cover-path staging: distance-(k-1) sweep sources, as cover ids
	tally pathTally // batched execution-path counts (obs.go)
}

// NewEnumScratch returns scratch space for enumerations against any index.
func NewEnumScratch() *EnumScratch { return &EnumScratch{} }

var enumScratchPool = sync.Pool{New: func() any { return NewEnumScratch() }}

// GetEnumScratch borrows an EnumScratch from the package pool; return it
// with PutEnumScratch. The pool keeps the visited bitmaps and frontier
// slices warm across callers that have no natural per-goroutine home for
// scratch (server handlers, one-shot API calls).
func GetEnumScratch() *EnumScratch { return enumScratchPool.Get().(*EnumScratch) }

// PutEnumScratch returns a borrowed scratch to the pool. The scratch must
// not be used after.
func PutEnumScratch(sc *EnumScratch) { enumScratchPool.Put(sc) }

// reset prepares the scratch for a graph with n vertices.
func (sc *EnumScratch) reset(n int) {
	sc.bfs.Reset(n)
	sc.out = sc.out[:0]
	sc.near = sc.near[:0]
	sc.rim = sc.rim[:0]
}

// Finish applies SortByDistance and Limit to the staged result. The
// returned slice aliases the scratch — it is valid until the scratch's
// next use — so the per-ball hot path allocates nothing; callers that
// retain the ball (the public API's conversion, server handlers) copy at
// their own boundary.
func (sc *EnumScratch) Finish(opts EnumOptions) ([]Neighbor, int) {
	total := len(sc.out)
	if opts.SortByDistance {
		slices.SortFunc(sc.out, func(a, b Neighbor) int {
			if c := cmp.Compare(a.Bucket, b.Bucket); c != 0 {
				return c
			}
			return cmp.Compare(a.V, b.V)
		})
	}
	res := sc.out
	if opts.Limit > 0 && len(res) > opts.Limit {
		res = res[:opts.Limit]
	}
	return res, total
}

// BFSFallback stages in sc the k-hop ball around src (src excluded; k < 0:
// unbounded, everything Within) by the bounded BFS over g with ov applied
// (nil: g alone), following dir. Each level is labelled right after it is
// expanded, while it is still in cache: Frontier at depth k, Within below.
// ctx is polled before every level; on cancellation the staged result is
// discarded and ctx.Err() returned. Every index kind — the dynamic overlay
// included — runs it wherever its rows cannot prove the ball.
func BFSFallback(ctx context.Context, g *graph.Graph, ov *graph.Overlay, src graph.Vertex, k int,
	dir graph.Direction, sc *EnumScratch) error {
	sc.tally.bump(pathIdxBFSFallback)
	sc.reset(g.NumVertices())
	b := &sc.bfs
	b.Visit(src)
	done := ctx.Done()
	for d := 1; k < 0 || d <= k; d++ {
		if done != nil && cancelled(done) {
			return ctx.Err()
		}
		level := b.Expand(g, ov, dir)
		if len(level) == 0 {
			break
		}
		bucket := BucketWithin
		if d == k {
			bucket = BucketFrontier
		}
		for _, v := range level {
			sc.out = append(sc.out, Neighbor{V: v, Bucket: bucket})
		}
	}
	return nil
}

// Enumerate materializes the k-hop ball around src for the index's own k
// (Unbounded = everything reachable). It returns the ball members (source
// excluded, Limit applied) and the full ball size; the slice aliases the
// scratch and is valid until the scratch's next use. Safe for concurrent
// use; a nil scratch allocates one internally (so the result never aliases
// shared state).
//
// Enumeration from a cover endpoint takes an accelerated path in either
// direction: the endpoint's index row (forward) or transposed in-row
// (backward) IS the ball's cover portion, and one adjacency sweep over its
// ≤k-1 entries adds the non-cover fringe. All other cases run the exact
// bounded frontier BFS. ctx is honored between frontier levels (and
// between the accelerated path's phases).
func (ix *Index) Enumerate(ctx context.Context, src graph.Vertex, opts EnumOptions, sc *EnumScratch) ([]Neighbor, int, error) {
	if sc == nil {
		sc = NewEnumScratch()
	}
	var err error
	if ix.InCover(src) {
		err = ix.enumerateCover(ctx, src, opts.Direction, sc) // bumps cover-row
	} else {
		err = BFSFallback(ctx, ix.g, nil, src, ix.k, opts.Direction, sc)
	}
	if err != nil {
		return nil, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, nil
}

// enumerateCover is the accelerated path for a cover endpoint c, in either
// direction: forward it reads c's index row and out-fringe, backward ("who
// reaches c") the transposed in-row and in-fringe. Exactness rests on two
// facts: the row's weight buckets are exact classifications of the cover
// distances (w ≤ k-1 ⟺ dist ≤ k-1, w = k ⟺ dist = k), and every non-cover
// vertex has all of its neighbors, on both sides, in the cover — any edge
// at it must be covered at the other end. So a fringe vertex's distance is
// 1 + the least distance among its cover neighbors: it is Within iff one
// of them sits at distance ≤ k-2 (a ≤k-2 row entry, or c itself when
// k ≥ 2), and on the Frontier iff it is reached only through distance-(k-1)
// entries.
func (ix *Index) enumerateCover(ctx context.Context, src graph.Vertex, dir graph.Direction, sc *EnumScratch) error {
	sc.reset(ix.g.NumVertices())
	// The per-direction view: the index CSR (forward rows, or the
	// transposed in-rows) and the graph's fringe CSR in the same direction.
	// Both name cover ids, which the cover list resolves to graph vertices.
	head, arcs := ix.outHead, ix.outArc
	fringeHead, fringeAdj := ix.fringeOutHead, ix.fringeOutAdj
	if dir == graph.Backward {
		head, arcs = ix.inHead, ix.inArc
		fringeHead, fringeAdj = ix.fringeInHead, ix.fringeInAdj
	}
	done := ctx.Done()
	c := ix.coverID[src]
	list := ix.coverSet.List()

	// Phase 1: the row is the ball's cover portion, buckets straight from
	// its arcs' 2-bit weights — one pass. Fringe sweep sources are staged
	// as we go: sc.near the ≤k-2 sources for Phase 2a, sc.rim the =k-1 rim
	// sources for Phase 2b. Cover members are never marked in the visited
	// bitmap: the fringe sweeps only ever meet non-cover vertices, so only
	// those need dedup bits.
	if ix.k == Unbounded || ix.k >= 2 {
		sc.near = append(sc.near, c) // distance 0 ≤ k-2 for k ≥ 2
	} else {
		sc.rim = append(sc.rim, c) // k = 1: the endpoint is the whole rim
	}
	sc.tally.bump(pathIdxCoverRow)
	for _, a := range arcs[head[c]:head[c+1]] {
		bucket := BucketWithin
		switch a.W() {
		case weightLEKm2: // the unbounded index stores only this bucket
			sc.near = append(sc.near, a.To())
		case weightKm1:
			sc.rim = append(sc.rim, a.To())
		default:
			if ix.k != Unbounded {
				bucket = BucketFrontier
			}
		}
		sc.out = append(sc.out, Neighbor{V: list[a.To()], Bucket: bucket})
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2a: fringe next to a ≤k-2 cover vertex is Within.
	sc.sweep(fringeHead, fringeAdj, sc.near, BucketWithin)
	if ix.k == Unbounded {
		return nil // no rim on an unbounded ball
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2b: fringe first reached through a k-1 entry is the rim.
	sc.sweep(fringeHead, fringeAdj, sc.rim, BucketFrontier)
	return nil
}

// sweep stages, with bucket, every vertex of the fringe CSR (head, adj)
// next to the cover ids in from that no earlier sweep reached. The fringe
// CSR lists only non-cover vertices, so membership needs no test.
func (sc *EnumScratch) sweep(head []int32, adj []graph.Vertex, from []int32, bucket DistBucket) {
	for _, cu := range from {
		for _, x := range adj[head[cu]:head[cu+1]] {
			if sc.bfs.Visit(x) {
				sc.out = append(sc.out, Neighbor{V: x, Bucket: bucket})
			}
		}
	}
}

// Enumerate materializes the k-hop ball around src for the (h,k) index's
// own k. The (h,k) arc weights cannot place the Within/Frontier boundary —
// the low weights are bucketed and each endpoint adds up to h hops of
// slack, the same blur that restricts HKIndex to its own k pairwise — so
// every (h,k) enumeration runs the exact bounded frontier BFS. Semantics
// and options as in Index.Enumerate.
func (ix *HKIndex) Enumerate(ctx context.Context, src graph.Vertex, opts EnumOptions, sc *EnumScratch) ([]Neighbor, int, error) {
	if sc == nil {
		sc = NewEnumScratch()
	}
	if err := BFSFallback(ctx, ix.g, nil, src, ix.k, opts.Direction, sc); err != nil {
		return nil, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, nil
}

// Enumerate materializes the k-hop ball around src for an arbitrary
// per-query k (k < 0 = classic reachability). A k that lands on a rung is
// answered by that rung's index — sharing the accelerated cover path — and
// classic reachability by the unbounded rung. Between rungs the ladder's
// one-sided approximation is useless for a set query (it cannot even bound
// the ball's membership), so those bounds run the exact BFS at the
// requested k.
func (m *MultiIndex) Enumerate(ctx context.Context, src graph.Vertex, k int, opts EnumOptions, sc *EnumScratch) ([]Neighbor, int, error) {
	if sc == nil {
		sc = NewEnumScratch()
	}
	if k < 0 || k >= m.g.NumVertices()-1 {
		return m.unbnd.Enumerate(ctx, src, opts, sc)
	}
	if ix, ok := m.byK[k]; ok {
		return ix.Enumerate(ctx, src, opts, sc)
	}
	if err := BFSFallback(ctx, m.g, nil, src, k, opts.Direction, sc); err != nil {
		return nil, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, nil
}
