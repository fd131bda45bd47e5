package kreach

import (
	"context"

	"kreach/internal/core"
	"kreach/internal/graph"
)

// This file is the neighborhood-enumeration face of the v2 query surface:
// where ReachK answers "is t in s's small world?", ReachFrom answers the
// paper's title question — *who* is — by materializing the whole k-hop
// ball, and ReachInto its mirror (who has s in their small world). The
// capability is optional by design: serving layers probe for it with a
// type assertion and reject enumeration requests against Reachers that
// cannot enumerate, instead of every backend being forced to implement it.
//
//	enum, ok := r.(kreach.NeighborEnumerator)
//	if ok {
//	    ball, err := enum.ReachFrom(ctx, s, kreach.UseIndexK, kreach.EnumOptions{})
//	}
//
// All four built-in variants implement it. Hop-bound semantics follow
// ReachK exactly: UseIndexK selects the native bound, fixed-k variants
// reject other bounds with a *KMismatchError, a MultiIndex answers any
// bound (normalized by its own rules), and negative bounds mean classic
// reachability.

// DistBucket classifies a ball member's shortest distance from the query
// endpoint relative to the effective hop bound k. See the constants.
type DistBucket = core.DistBucket

const (
	// DistWithin marks a member strictly inside the ball: 0 < dist ≤ k-1
	// (for an unbounded ball, every member).
	DistWithin = core.BucketWithin
	// DistFrontier marks a member on the ball's rim: dist == k exactly.
	DistFrontier = core.BucketFrontier
)

// Neighbor is one ball member. The query endpoint itself (distance 0) is
// never listed.
type Neighbor struct {
	// ID is the member vertex.
	ID int
	// Bucket places the member strictly inside the ball or on its rim.
	Bucket DistBucket
}

// EnumOptions configures one ReachFrom/ReachInto call. The zero value
// returns the whole ball in evaluation order.
type EnumOptions struct {
	// Limit caps the returned neighbor slice (0 = no cap); Ball.Total
	// always reports the untruncated size.
	Limit int
	// SortByDistance orders members nearest-first: bucket-major (within
	// before frontier), vertex-id-minor. Deterministic across variants;
	// the default evaluation order is deterministic only per variant.
	SortByDistance bool
}

// Ball is the result of one enumeration: the k-hop neighborhood of Source
// in the queried direction, excluding Source itself.
type Ball struct {
	// Source is the query endpoint.
	Source int
	// K is the effective hop bound the ball was answered for: the resolved
	// native bound for UseIndexK, the normalized bound on a MultiIndex
	// (Unbounded for classic reachability).
	K int
	// Total is the full ball size before Limit truncation.
	Total int
	// Epoch is the index epoch the ball was enumerated at (Reacher.Epoch).
	// A dynamic index reads it under the same lock as the traversal, so the
	// ball is exactly the k-hop ball of the edge set at Epoch.
	Epoch uint64
	// Neighbors lists the members (at most Limit when set).
	Neighbors []Neighbor
}

// Complete reports whether Neighbors carries the whole ball.
func (b *Ball) Complete() bool { return len(b.Neighbors) == b.Total }

// NeighborEnumerator is the optional Reacher capability for k-hop
// neighborhood enumeration. Implementations must return balls that exactly
// equal the BFS ball of the effective bound — membership and buckets — on
// the edge set they answer for. Both methods are safe for concurrent use;
// ctx is honored between BFS frontier levels (a cancelled call returns
// ctx.Err() and no partial ball).
type NeighborEnumerator interface {
	// ReachFrom enumerates the vertices reachable from s within k hops.
	ReachFrom(ctx context.Context, s, k int, opts EnumOptions) (*Ball, error)
	// ReachInto enumerates the vertices that reach t within k hops.
	ReachInto(ctx context.Context, t, k int, opts EnumOptions) (*Ball, error)
}

// The four built-in variants are the reference enumerators.
var (
	_ NeighborEnumerator = (*Index)(nil)
	_ NeighborEnumerator = (*HKIndex)(nil)
	_ NeighborEnumerator = (*MultiIndex)(nil)
	_ NeighborEnumerator = (*DynamicIndex)(nil)
)

func (o EnumOptions) core(dir graph.Direction) core.EnumOptions {
	return core.EnumOptions{Direction: dir, Limit: o.Limit, SortByDistance: o.SortByDistance}
}

// enumerate is the body every ReachFrom and ReachInto shares once it has
// validated the endpoint and resolved the bound effK: it borrows an
// EnumScratch from core's pool for run, the variant's core enumeration,
// and converts the ball before returning the scratch, since run's result
// aliases the scratch's staging buffer.
func enumerate(source, effK int, run func(*core.EnumScratch) ([]core.Neighbor, int, uint64, error)) (*Ball, error) {
	sc := core.GetEnumScratch()
	defer core.PutEnumScratch(sc)
	res, total, epoch, err := run(sc)
	if err != nil {
		return nil, err
	}
	b := &Ball{Source: source, K: effK, Total: total, Epoch: epoch, Neighbors: make([]Neighbor, len(res))}
	for i, nb := range res {
		b.Neighbors[i] = Neighbor{ID: int(nb.V), Bucket: nb.Bucket}
	}
	return b, nil
}

// ReachFrom implements NeighborEnumerator: the ball of vertices s reaches
// within k hops (UseIndexK or the index's own k; see Index.ReachK for the
// hop-bound rules). A cover source rides the accelerated cover-arc path.
func (ix *Index) ReachFrom(ctx context.Context, s, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, s, k, opts, graph.Forward)
}

// ReachInto implements NeighborEnumerator: the ball of vertices that reach
// t within k hops.
func (ix *Index) ReachInto(ctx context.Context, t, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, t, k, opts, graph.Backward)
}

func (ix *Index) enumerate(ctx context.Context, v, k int, opts EnumOptions, dir graph.Direction) (*Ball, error) {
	ix.g.check(v)
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return nil, err
	}
	return enumerate(v, effK, func(sc *core.EnumScratch) ([]core.Neighbor, int, uint64, error) {
		res, total, err := ix.ix.Enumerate(ctx, graph.Vertex(v), opts.core(dir), sc)
		return res, total, ix.Epoch(), err
	})
}

// ReachFrom implements NeighborEnumerator for the (h,k) index (its own k
// only; see HKIndex.ReachK). Every (h,k) ball runs the exact bounded
// frontier BFS — the blurred (h,k) weight buckets cannot place the
// within/frontier boundary.
func (ix *HKIndex) ReachFrom(ctx context.Context, s, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, s, k, opts, graph.Forward)
}

// ReachInto implements NeighborEnumerator; see HKIndex.ReachFrom.
func (ix *HKIndex) ReachInto(ctx context.Context, t, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, t, k, opts, graph.Backward)
}

func (ix *HKIndex) enumerate(ctx context.Context, v, k int, opts EnumOptions, dir graph.Direction) (*Ball, error) {
	ix.g.check(v)
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return nil, err
	}
	return enumerate(v, effK, func(sc *core.EnumScratch) ([]core.Neighbor, int, uint64, error) {
		res, total, err := ix.ix.Enumerate(ctx, graph.Vertex(v), opts.core(dir), sc)
		return res, total, ix.Epoch(), err
	})
}

// ReachFrom implements NeighborEnumerator: a ladder answers any hop bound,
// normalized by MultiIndex.NormalizeK (UseIndexK, negatives and k ≥ n−1
// all mean classic reachability). A bound that lands on a rung is answered
// by that rung's index; between rungs the ball is computed by the exact
// bounded BFS — the ladder's one-sided pairwise approximation cannot bound
// a set query's membership. Ball.K reports the normalized bound.
func (ix *MultiIndex) ReachFrom(ctx context.Context, s, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, s, k, opts, graph.Forward)
}

// ReachInto implements NeighborEnumerator; see MultiIndex.ReachFrom.
func (ix *MultiIndex) ReachInto(ctx context.Context, t, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, t, k, opts, graph.Backward)
}

func (ix *MultiIndex) enumerate(ctx context.Context, v, k int, opts EnumOptions, dir graph.Direction) (*Ball, error) {
	ix.g.check(v)
	effK := ix.NormalizeK(k)
	return enumerate(v, effK, func(sc *core.EnumScratch) ([]core.Neighbor, int, uint64, error) {
		res, total, err := ix.m.Enumerate(ctx, graph.Vertex(v), effK, opts.core(dir), sc)
		return res, total, ix.Epoch(), err
	})
}

// ReachFrom implements NeighborEnumerator against the live edge set (the
// index's own k only; see DynamicIndex.ReachK). The whole ball is
// enumerated under the index's read lock, so it is a consistent snapshot
// of one epoch, which Ball.Epoch names.
func (ix *DynamicIndex) ReachFrom(ctx context.Context, s, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, s, k, opts, graph.Forward)
}

// ReachInto implements NeighborEnumerator; see DynamicIndex.ReachFrom.
func (ix *DynamicIndex) ReachInto(ctx context.Context, t, k int, opts EnumOptions) (*Ball, error) {
	return ix.enumerate(ctx, t, k, opts, graph.Backward)
}

func (ix *DynamicIndex) enumerate(ctx context.Context, v, k int, opts EnumOptions, dir graph.Direction) (*Ball, error) {
	ix.g.check(v)
	effK, err := ResolveK(ix.K(), k)
	if err != nil {
		return nil, err
	}
	return enumerate(v, effK, func(sc *core.EnumScratch) ([]core.Neighbor, int, uint64, error) {
		return ix.d.Enumerate(ctx, graph.Vertex(v), opts.core(dir), sc)
	})
}
