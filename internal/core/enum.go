package core

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"kreach/internal/bitvec"
	"kreach/internal/graph"
)

// This file is the neighborhood-enumeration engine: instead of asking
// whether one pair (s, t) is k-hop reachable (Algorithm 2), it answers the
// paper's title question directly — *who* is in s's small world — by
// materializing the whole k-hop ball around a vertex.
//
// Two evaluation strategies share one output contract:
//
//   - a bounded frontier BFS over the adjacency (ballGraph for CSR graphs,
//     BallBFS for callback adjacencies such as the dynamic overlay), the
//     exact fallback that works for every variant and direction; and
//   - a cover-arc accelerated path on the plain index (Index.Enumerate,
//     from a cover endpoint, either direction): the endpoint's index row —
//     forward CSR for "whom does s reach", the finalize-built transposed
//     CSR for "who reaches t" — already lists every cover vertex of the
//     ball with its weight bucket, and — because every non-cover vertex
//     has ALL its neighbors in the cover — one adjacency sweep over the
//     row's ≤k-1 entries completes the fringe. Hub rows expand
//     bucket-by-bucket through the word-parallel WeightRow.IterateEQ
//     kernel instead of decoding one weight per arc.
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

// BallScratch is the engine state of one bounded BFS — a visited bitmap
// over vertex ids plus the frontier queue — reusable across calls like
// QueryScratch is for Reach. Clearing is O(ball), not O(n): the touched
// list records exactly the bits to lower. It is the allocation-free core
// under EnumScratch; use it standalone when only membership (not the
// staged Neighbor output) is needed.
type BallScratch struct {
	visited []uint64       // bitmap over vertex ids
	touched []graph.Vertex // set positions, for O(ball) clearing
	queue   []graph.Vertex
}

// NewBallScratch returns ball-BFS scratch for graphs of any size.
func NewBallScratch() *BallScratch { return &BallScratch{} }

// reset prepares the scratch for a graph with n vertices, clearing only the
// bits the previous call set. Every set bit is recorded in touched, so
// zeroing each touched vertex's whole word (a bare store — duplicates are
// harmless) clears the bitmap in O(ball).
func (b *BallScratch) reset(n int) {
	if need := (n + 63) / 64; need > len(b.visited) {
		b.visited = make([]uint64, need)
	} else {
		for _, v := range b.touched {
			b.visited[v>>6] = 0
		}
	}
	b.touched = b.touched[:0]
	b.queue = b.queue[:0]
}

func (b *BallScratch) seen(v graph.Vertex) bool { return bitvec.TestBit(b.visited, int(v)) }

func (b *BallScratch) mark(v graph.Vertex) {
	bitvec.SetBit(b.visited, int(v))
	b.touched = append(b.touched, v)
}

// tryMark is seen+mark fused into one word access: it marks v and reports
// true iff v was unseen. The single read-modify-write (instead of TestBit
// then SetBit) is what keeps the BFS fallback's per-edge cost at
// epoch-stamp speed.
func (b *BallScratch) tryMark(v graph.Vertex) bool {
	i := v >> 6
	bit := uint64(1) << (uint(v) & 63)
	w := b.visited[i]
	if w&bit != 0 {
		return false
	}
	b.visited[i] = w | bit
	b.touched = append(b.touched, v)
	return true
}

// EnumScratch holds reusable per-goroutine enumeration state (the ball
// scratch plus output staging); create one per goroutine or borrow one from
// the package pool with GetEnumScratch. Buffers grow lazily to the graph
// size on first use.
type EnumScratch struct {
	ball  BallScratch
	out   []Neighbor
	rim   []graph.Vertex // cover-path staging: distance-(k-1) sweep sources, as cover ids
	tally pathTally      // batched execution-path counts (obs.go)
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
	sc.ball.reset(n)
	sc.out = sc.out[:0]
	sc.rim = sc.rim[:0]
}

func (sc *EnumScratch) seen(v graph.Vertex) bool { return sc.ball.seen(v) }
func (sc *EnumScratch) mark(v graph.Vertex)      { sc.ball.mark(v) }

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

// BallBFS enumerates the k-hop ball around src (src excluded) with a
// level-synchronous bounded BFS over an adjacency callback, staging results
// in sc. k < 0 means unbounded (classic reachability: everything is
// Within). forEach must invoke its yield function once per neighbor of v in
// the chosen direction. ctx is polled between frontier levels; on
// cancellation the staged result is discarded and ctx.Err() returned.
//
// It is exported within the module so every index variant — including the
// dynamic overlay, whose adjacency is not a *graph.Graph — shares one
// fallback engine. n is the vertex count the scratch must cover. CSR
// graphs take the closure-free ballGraph path instead.
func BallBFS(ctx context.Context, n int, src graph.Vertex, k int,
	forEach func(v graph.Vertex, yield func(w graph.Vertex)), sc *EnumScratch) error {
	sc.tally.bump(pathIdxBFSFallback)
	sc.reset(n)
	b := &sc.ball
	b.tryMark(src)
	done := ctx.Done()
	// touched doubles as the BFS queue: tryMark appends every newly seen
	// vertex in visit order, which is exactly the frontier sequence. One
	// yield closure for the whole call; bucket is re-aimed per level.
	bucket := BucketWithin
	yield := func(w graph.Vertex) {
		if b.tryMark(w) {
			sc.out = append(sc.out, Neighbor{V: w, Bucket: bucket})
		}
	}
	frontierEnd := len(b.touched) // index one past the current level
	depth := 0
	for head := 0; head < len(b.touched); head++ {
		if head == frontierEnd {
			depth++
			frontierEnd = len(b.touched)
			if done != nil && cancelled(done) {
				return ctx.Err()
			}
		}
		if k >= 0 && depth >= k {
			break // the last level is not expanded
		}
		bucket = BucketWithin
		if k >= 0 && depth+1 == k {
			bucket = BucketFrontier
		}
		forEach(b.touched[head], yield)
	}
	return nil
}

// ballGraph is BallBFS specialized to a CSR graph: the neighbor slices are
// ranged directly, with no per-vertex callback or closure in the hot loop.
// Semantics are identical to BallBFS over the same adjacency.
func ballGraph(ctx context.Context, g *graph.Graph, src graph.Vertex, k int,
	dir graph.Direction, sc *EnumScratch) error {
	sc.tally.bump(pathIdxBFSFallback)
	sc.reset(g.NumVertices())
	b := &sc.ball
	b.tryMark(src)
	done := ctx.Done()
	// As in BallBFS, touched doubles as the BFS queue.
	frontierEnd := len(b.touched)
	depth := 0
	for head := 0; head < len(b.touched); head++ {
		if head == frontierEnd {
			depth++
			frontierEnd = len(b.touched)
			if done != nil && cancelled(done) {
				return ctx.Err()
			}
		}
		if k >= 0 && depth >= k {
			break
		}
		bucket := BucketWithin
		if k >= 0 && depth+1 == k {
			bucket = BucketFrontier
		}
		u := b.touched[head]
		var nbrs []graph.Vertex
		if dir == graph.Forward {
			nbrs = g.OutNeighbors(u)
		} else {
			nbrs = g.InNeighbors(u)
		}
		for _, w := range nbrs {
			if b.tryMark(w) {
				sc.out = append(sc.out, Neighbor{V: w, Bucket: bucket})
			}
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
	switch {
	case !ix.InCover(src):
		err = ballGraph(ctx, ix.g, src, ix.k, opts.Direction, sc) // bumps bfs-fallback
	case opts.Direction == graph.Forward:
		err = ix.enumerateCoverSource(ctx, src, sc) // bumps dense-lane / cover-row
	default:
		err = ix.enumerateCoverTarget(ctx, src, sc) // bumps dense-lane / cover-row
	}
	if err != nil {
		return nil, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, nil
}

// enumerateCoverSource is the accelerated forward path for a cover source.
// Exactness rests on two facts: the row's weight buckets are exact
// classifications of the cover distances (w ≤ k-1 ⟺ dist ≤ k-1, w = k ⟺
// dist = k), and every non-cover vertex has all of its in-neighbors in the
// cover — so a fringe vertex is Within iff some in-neighbor sits at
// distance ≤ k-2 (a ≤k-2 row entry, or the source itself when k ≥ 2), and
// on the Frontier iff it is reached only from distance-(k-1) entries.
func (ix *Index) enumerateCoverSource(ctx context.Context, src graph.Vertex, sc *EnumScratch) error {
	sc.reset(ix.g.NumVertices())
	b := &sc.ball
	done := ctx.Done()
	cs := ix.coverID[src]
	list := ix.coverSet.List()
	base := int(ix.outHead[cs])
	row := ix.outAdj[base:ix.outHead[cs+1]]

	// Phase 1: the row is the ball's cover portion, buckets straight from
	// the 2-bit weights — one pass. Fringe expansion sources are staged as
	// we go: b.queue collects the ≤k-2 sources for Phase 2a, sc.rim the
	// =k-1 rim sources for Phase 2b. Cover members are never marked in the
	// visited bitmap: the fringe sweeps reject them by cover id, so only
	// fringe vertices need dedup bits. A hub source expands
	// bucket-by-bucket through the word-parallel IterateEQ kernel.
	if ix.k == Unbounded || ix.k >= 2 {
		b.queue = append(b.queue, cs) // distance 0 ≤ k-2 for k ≥ 2
	} else {
		sc.rim = append(sc.rim, cs) // k = 1: the source is the whole rim
	}
	if denseSlot := ix.denseID[cs]; denseSlot >= 0 {
		sc.tally.bump(pathIdxDenseLane)
		drow := ix.denseRow(denseSlot)
		drow.IterateEQ(weightLEKm2, func(cv int) {
			sc.out = append(sc.out, Neighbor{V: list[cv], Bucket: BucketWithin})
			b.queue = append(b.queue, int32(cv))
		})
		if ix.k != Unbounded {
			drow.IterateEQ(weightKm1, func(cv int) {
				sc.out = append(sc.out, Neighbor{V: list[cv], Bucket: BucketWithin})
				sc.rim = append(sc.rim, int32(cv))
			})
			drow.IterateEQ(weightK, func(cv int) {
				sc.out = append(sc.out, Neighbor{V: list[cv], Bucket: BucketFrontier})
			})
		}
	} else {
		sc.tally.bump(pathIdxCoverRow)
		for p, cv := range row {
			v := ix.outVtx[base+p]
			bucket := BucketWithin
			switch ix.weights.Get(base + p) {
			case weightLEKm2: // the unbounded index stores only this bucket
				b.queue = append(b.queue, cv)
			case weightKm1:
				sc.rim = append(sc.rim, cv)
			default:
				if ix.k != Unbounded {
					bucket = BucketFrontier
				}
			}
			sc.out = append(sc.out, Neighbor{V: v, Bucket: bucket})
		}
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2a: fringe reachable through a ≤k-2 cover vertex is Within.
	// The sweep walks the pre-filtered fringe adjacency: every candidate
	// is non-cover by construction, so membership needs no test.
	for _, cu := range b.queue {
		for _, x := range ix.fringeOutAdj[ix.fringeOutHead[cu]:ix.fringeOutHead[cu+1]] {
			if b.tryMark(x) {
				sc.out = append(sc.out, Neighbor{V: x, Bucket: BucketWithin})
			}
		}
	}
	if ix.k == Unbounded {
		return nil // no rim on an unbounded ball
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2b: fringe first reached through a k-1 entry is the rim.
	for _, cu := range sc.rim {
		for _, x := range ix.fringeOutAdj[ix.fringeOutHead[cu]:ix.fringeOutHead[cu+1]] {
			if b.tryMark(x) {
				sc.out = append(sc.out, Neighbor{V: x, Bucket: BucketFrontier})
			}
		}
	}
	return nil
}

// enumerateCoverTarget is the accelerated backward path for a cover
// target: "who reaches t within k". It is the exact mirror of
// enumerateCoverSource through the transposed index CSR. Symmetry holds
// because every non-cover vertex has all of its OUT-neighbors in the cover
// (any edge leaving it must be covered at the other end), so dist(x, t) =
// 1 + min over out-neighbors u of dist(u, t): a fringe vertex is Within
// iff some out-neighbor sits at distance ≤ k-2 of t (a ≤k-2 in-row entry,
// or t itself when k ≥ 2), and on the Frontier iff it is reached only
// through distance-(k-1) entries.
func (ix *Index) enumerateCoverTarget(ctx context.Context, src graph.Vertex, sc *EnumScratch) error {
	sc.reset(ix.g.NumVertices())
	b := &sc.ball
	done := ctx.Done()
	ct := ix.coverID[src]
	list := ix.coverSet.List()
	base := int(ix.inHead[ct])
	row := ix.inAdj[base:ix.inHead[ct+1]]

	// Phase 1: the in-row is the ball's cover portion — one pass, staging
	// as in enumerateCoverSource: b.queue the ≤k-2 sweep sources, sc.rim
	// the =k-1 rim sources, no visited marks for cover members.
	if ix.k == Unbounded || ix.k >= 2 {
		b.queue = append(b.queue, ct)
	} else {
		sc.rim = append(sc.rim, ct) // k = 1: the target is the whole rim
	}
	if denseSlot := ix.inDenseID[ct]; denseSlot >= 0 {
		sc.tally.bump(pathIdxDenseLane)
		drow := ix.inDenseRow(denseSlot)
		drow.IterateEQ(weightLEKm2, func(cu int) {
			sc.out = append(sc.out, Neighbor{V: list[cu], Bucket: BucketWithin})
			b.queue = append(b.queue, int32(cu))
		})
		if ix.k != Unbounded {
			drow.IterateEQ(weightKm1, func(cu int) {
				sc.out = append(sc.out, Neighbor{V: list[cu], Bucket: BucketWithin})
				sc.rim = append(sc.rim, int32(cu))
			})
			drow.IterateEQ(weightK, func(cu int) {
				sc.out = append(sc.out, Neighbor{V: list[cu], Bucket: BucketFrontier})
			})
		}
	} else {
		sc.tally.bump(pathIdxCoverRow)
		for p, cu := range row {
			u := ix.inVtx[base+p]
			bucket := BucketWithin
			switch ix.inW.Get(base + p) {
			case weightLEKm2:
				b.queue = append(b.queue, cu)
			case weightKm1:
				sc.rim = append(sc.rim, cu)
			default:
				if ix.k != Unbounded {
					bucket = BucketFrontier
				}
			}
			sc.out = append(sc.out, Neighbor{V: u, Bucket: bucket})
		}
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2a: fringe with an out-neighbor at distance ≤ k-2 is Within;
	// the pre-filtered fringe adjacency lists exactly the candidates.
	for _, cu := range b.queue {
		for _, x := range ix.fringeInAdj[ix.fringeInHead[cu]:ix.fringeInHead[cu+1]] {
			if b.tryMark(x) {
				sc.out = append(sc.out, Neighbor{V: x, Bucket: BucketWithin})
			}
		}
	}
	if ix.k == Unbounded {
		return nil
	}
	if done != nil && cancelled(done) {
		return ctx.Err()
	}
	// Phase 2b: fringe first reached through a k-1 entry is the rim.
	for _, cu := range sc.rim {
		for _, x := range ix.fringeInAdj[ix.fringeInHead[cu]:ix.fringeInHead[cu+1]] {
			if b.tryMark(x) {
				sc.out = append(sc.out, Neighbor{V: x, Bucket: BucketFrontier})
			}
		}
	}
	return nil
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
	if err := ballGraph(ctx, ix.g, src, ix.k, opts.Direction, sc); err != nil {
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
	if err := ballGraph(ctx, m.g, src, k, opts.Direction, sc); err != nil {
		return nil, 0, err
	}
	res, total := sc.Finish(opts)
	return res, total, nil
}
