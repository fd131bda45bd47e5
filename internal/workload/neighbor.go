package workload

import (
	"math/rand/v2"

	"kreach/internal/core"
	"kreach/internal/graph"
)

// This file generates neighborhood-enumeration workloads: streams of
// "materialize the k-hop ball around v" queries, the set-query counterpart
// of the pairwise streams above. Like MutationStream, the generator
// doubles as its own ground truth: Ball runs an independent bounded BFS
// over the graph, so harnesses and tests can cross-check every index
// answer without trusting any index code.

// NeighborQuery is one enumeration request.
type NeighborQuery struct {
	Src graph.Vertex
	K   int // hop bound; < 0 means unbounded
	Dir graph.Direction
}

// NeighborStream produces a deterministic stream of enumeration queries
// over a fixed graph: sources drawn uniformly (optionally celebrity-biased
// through the top-degree list), hop bounds cycled from a fixed set, and
// directions alternating. Not safe for concurrent use.
type NeighborStream struct {
	rng  *rand.Rand
	g    *graph.Graph
	ks   []int
	top  []graph.Vertex
	bias float64
	i    int
}

// NewNeighborStream seeds a stream over g. ks lists the hop bounds to
// cycle through (empty: {2}); bias in (0,1] makes that fraction of sources
// come from the top-64 degree list, mirroring the Section 4.3 celebrity
// workload (0 disables).
func NewNeighborStream(g *graph.Graph, seed uint64, ks []int, bias float64) *NeighborStream {
	if len(ks) == 0 {
		ks = []int{2}
	}
	s := &NeighborStream{
		rng:  rand.New(rand.NewPCG(seed, 0xba11)),
		g:    g,
		ks:   append([]int(nil), ks...),
		bias: bias,
	}
	if bias > 0 {
		s.top = TopDegree(g, 64)
	}
	return s
}

// Next produces the next query.
func (s *NeighborStream) Next() NeighborQuery {
	src := graph.Vertex(s.rng.IntN(s.g.NumVertices()))
	if s.bias > 0 && s.rng.Float64() < s.bias {
		src = s.top[s.rng.IntN(len(s.top))]
	}
	q := NeighborQuery{
		Src: src,
		K:   s.ks[s.i%len(s.ks)],
		Dir: graph.Direction(s.i % 2),
	}
	s.i++
	return q
}

// Ball is the BFS-ball oracle: the exact k-hop ball of q (source excluded)
// with Within/Frontier buckets, read off graph.BFSDistances — the
// reference BFS, not the engine the indexes enumerate with.
func (s *NeighborStream) Ball(q NeighborQuery) map[graph.Vertex]core.DistBucket {
	out := make(map[graph.Vertex]core.DistBucket)
	for v, d := range graph.BFSDistances(s.g, q.Src, q.Dir) {
		if d <= 0 || (q.K >= 0 && int(d) > q.K) {
			continue // unreachable, the source itself, or beyond the bound
		}
		b := core.BucketWithin
		if int(d) == q.K {
			b = core.BucketFrontier
		}
		out[graph.Vertex(v)] = b
	}
	return out
}

// MatchesBall reports whether an index's answer equals the oracle ball of
// q — same membership, same buckets. It is the cross-check harnesses run
// per sampled query.
func (s *NeighborStream) MatchesBall(q NeighborQuery, got []core.Neighbor) bool {
	want := s.Ball(q)
	if len(got) != len(want) {
		return false
	}
	for _, nb := range got {
		if wb, ok := want[nb.V]; !ok || wb != nb.Bucket {
			return false
		}
	}
	return true
}
