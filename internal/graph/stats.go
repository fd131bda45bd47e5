package graph

import (
	"math/rand/v2"
	"sort"
)

// Stats captures the per-dataset columns of Table 2 in the paper: vertex and
// edge counts, maximum degree, (estimated) diameter d, and the median length
// µ of shortest paths between reachable pairs. DAG counts are computed by
// the scc package and filled in by callers to avoid an import cycle.
type Stats struct {
	N, M       int
	MaxDegree  int
	Diameter   int     // estimated directed diameter (longest shortest path)
	MedianPath int     // µ: median shortest-path length over reachable sampled pairs
	Reachable  float64 // fraction of sampled ordered pairs (s,t), s≠t, with s→t
}

// ComputeStats estimates the Table 2 statistics of g. Diameter and µ are
// computed from BFS runs seeded from `samples` sources (all vertices when
// samples ≥ n, matching the exact definition); the estimate is refined with
// a double-sweep lower bound for the diameter. rng drives source selection
// and must be non-nil.
func ComputeStats(g *Graph, samples int, rng *rand.Rand) Stats {
	n := g.NumVertices()
	st := Stats{N: n, M: g.NumEdges(), MaxDegree: g.MaxDegree()}
	if n == 0 {
		return st
	}
	sources := sampleVertices(n, samples, rng)
	var b BFS
	var (
		pathLens  []int32
		reachable int
		pairs     int
		diameter  int32
		deepStart Vertex = -1 // vertex with the largest backward eccentricity
		deepDist  int32  = -1
	)
	// eccentricity is the last traversal's deepest level: an unbounded Run
	// stops on an empty open level.
	eccentricity := func() int32 { return int32(b.Depth() - 1) }
	for _, src := range sources {
		b.Run(g, nil, src, -1, Forward)
		pairs += n - 1
		for d := 1; d <= b.Depth(); d++ {
			for range b.Level(d) {
				pathLens = append(pathLens, int32(d))
			}
		}
		reachable += len(b.Visited()) - 1
		diameter = max(diameter, eccentricity())
		// Backward sweep from the same source: the farthest vertex found is
		// a deep "root" candidate — a forward BFS from it typically
		// realizes the true long paths that uniform forward sampling misses
		// on DAGs where most vertices are leaves.
		b.Run(g, nil, src, -1, Backward)
		d := eccentricity()
		diameter = max(diameter, d)
		if d > deepDist {
			deepDist, deepStart = d, b.Level(int(d))[0]
		}
	}
	// Double-sweep refinement from the deepest root candidate.
	if deepStart >= 0 {
		b.Run(g, nil, deepStart, -1, Forward)
		diameter = max(diameter, eccentricity())
	}
	st.Diameter = int(diameter)
	if len(pathLens) > 0 {
		sort.Slice(pathLens, func(i, j int) bool { return pathLens[i] < pathLens[j] })
		st.MedianPath = int(pathLens[len(pathLens)/2])
	}
	if pairs > 0 {
		st.Reachable = float64(reachable) / float64(pairs)
	}
	return st
}

func sampleVertices(n, samples int, rng *rand.Rand) []Vertex {
	if samples >= n {
		all := make([]Vertex, n)
		for i := range all {
			all[i] = Vertex(i)
		}
		return all
	}
	seen := make(map[Vertex]bool, samples)
	out := make([]Vertex, 0, samples)
	for len(out) < samples {
		v := Vertex(rng.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
