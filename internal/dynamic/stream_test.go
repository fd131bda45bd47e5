package dynamic

import (
	"math/rand/v2"

	"kreach/internal/graph"
)

// edgeStream mirrors the benchmark's mutation stream: every batch adds
// fresh edges absent from the base graph and from the live window, and
// removes the adds of the batch liveBatches earlier.
type edgeStream struct {
	rng         *rand.Rand
	g           *graph.Graph
	live        map[graph.Edge]bool
	recent      [][]graph.Edge // adds of the last liveBatches batches, oldest first
	liveBatches int
}

func newEdgeStream(g *graph.Graph, liveBatches int, seed uint64) *edgeStream {
	return &edgeStream{rng: rand.New(rand.NewPCG(seed, 0x3d17a7e)), g: g,
		live: map[graph.Edge]bool{}, liveBatches: liveBatches}
}

// next draws one batch of adds new edges. The first joins of them connect
// two vertices drawn from among, when it is non-empty; the rest are uniform.
func (s *edgeStream) next(adds, joins int, among []graph.Vertex) (add, remove []graph.Edge) {
	n := s.g.NumVertices()
	for len(add) < adds {
		e := graph.Edge{Src: graph.Vertex(s.rng.IntN(n)), Dst: graph.Vertex(s.rng.IntN(n))}
		if len(add) < joins && len(among) > 1 {
			e = graph.Edge{Src: among[s.rng.IntN(len(among))], Dst: among[s.rng.IntN(len(among))]}
		}
		if e.Src == e.Dst || s.live[e] || s.g.HasEdge(e.Src, e.Dst) {
			continue
		}
		s.live[e] = true
		add = append(add, e)
	}
	if len(s.recent) == s.liveBatches {
		remove = s.recent[0]
		s.recent = s.recent[1:]
		for _, e := range remove {
			delete(s.live, e)
		}
	}
	s.recent = append(s.recent, add)
	return add, remove
}
