// Package testgraph provides shared graph fixtures for the test suites:
// the worked example graph from Figures 1–4 of the paper and seeded random
// graph generators small enough for brute-force oracles.
package testgraph

import (
	"math/rand/v2"

	"kreach/internal/graph"
)

// Named vertices of the paper's example graph (Figure 1 / Figure 3).
const (
	A graph.Vertex = iota
	B
	C
	D
	E
	F
	G
	H
	I
	J
)

// VertexName maps the example graph's vertex ids back to the paper's
// letters, for readable failure messages.
func VertexName(v graph.Vertex) string {
	if v < 0 || v > J {
		return "?"
	}
	return string(rune('a' + v))
}

// PaperFigure1 reconstructs the 10-vertex example graph of Figure 1. The
// edge set is derived from the worked Examples 1–4:
//
//	a→b, c→b, b→d, d→e, d→f, e→g, g→h, g→i, i→j
//
// With this edge set, {b,d,g,i} is the vertex cover of Example 1 (picked via
// edges (b,d) and (g,i)), the 3-reach index has exactly the edges
// (b,d):1 (b,g):3 (d,g):2 (d,i):3 (g,i):1 as in Figure 2, {d,e,g} is the
// 2-hop vertex cover of Example 3, and every query verdict stated in
// Examples 2 and 4 holds.
func PaperFigure1() *graph.Graph {
	b := graph.NewBuilder(10)
	for _, e := range [][2]graph.Vertex{
		{A, B}, {C, B}, {B, D}, {D, E}, {D, F}, {E, G}, {G, H}, {G, I}, {I, J},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Random returns a seeded uniform random directed graph with n vertices and
// up to m distinct edges (self-loops excluded, duplicates collapsed).
func Random(n, m int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	b := graph.NewBuilder(n)
	if n > 1 {
		for i := 0; i < m; i++ {
			u := graph.Vertex(rng.IntN(n))
			v := graph.Vertex(rng.IntN(n))
			if u == v {
				continue
			}
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// RandomDAG returns a seeded random DAG: edges only go from lower to higher
// vertex id, so topological order is the identity.
func RandomDAG(n, m int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x51f15ead5eed))
	b := graph.NewBuilder(n)
	if n > 1 {
		for i := 0; i < m; i++ {
			u := rng.IntN(n - 1)
			v := u + 1 + rng.IntN(n-1-u)
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	return b.Build()
}

// Cycle returns a directed cycle on n vertices (0→1→…→n-1→0).
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex((i+1)%n))
	}
	return b.Build()
}

// Path returns a directed path 0→1→…→n-1.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	return b.Build()
}

// Star returns a hub-and-spoke graph: 0→i for i in [1,n) when out is true,
// i→0 otherwise. Exercises the paper's "Lady Gaga" high-degree case.
func Star(n int, out bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		if out {
			b.AddEdge(0, graph.Vertex(i))
		} else {
			b.AddEdge(graph.Vertex(i), 0)
		}
	}
	return b.Build()
}

// Lattice returns a seeded directed Watts–Strogatz ring, the benchmark's
// small-world shape: every vertex points at its two nearest neighbours on
// each side, each head rewired to a uniform vertex with probability 0.05.
// Neighbouring k-hop balls overlap heavily, so one changed edge touches
// many cover rows.
func Lattice(n int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x77a7751))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, d := range []int{1, 2, n - 1, n - 2} {
			v := (u + d) % n
			if rng.Float64() < 0.05 {
				v = rng.IntN(n)
			}
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	return b.Build()
}

// ReachOracle precomputes all-pairs k-hop reachability by BFS from every
// vertex; Dist[s][t] is the shortest path length or graph.InfDist. Intended
// for graphs with at most a few thousand vertices.
type ReachOracle struct {
	Dist [][]int32
}

// NewReachOracle builds the oracle for g.
func NewReachOracle(g *graph.Graph) *ReachOracle {
	n := g.NumVertices()
	o := &ReachOracle{Dist: make([][]int32, n)}
	for s := 0; s < n; s++ {
		o.Dist[s] = graph.BFSDistances(g, graph.Vertex(s), graph.Forward)
	}
	return o
}

// Reach reports whether t is within k hops of s (k < 0 means unbounded).
func (o *ReachOracle) Reach(s, t graph.Vertex, k int) bool {
	d := o.Dist[s][t]
	if d == graph.InfDist {
		return false
	}
	return k < 0 || int(d) <= k
}

// CoverArc is one arc of a reference index graph: the target's position in
// the cover list and its exact shortest distance from the row's source.
type CoverArc struct {
	To   int32
	Dist int32
}

// ReferenceRows is Lines 4–8 of Algorithm 1 with none of the build's
// machinery: one full single-threaded BFS per vertex of list (a cover,
// ascending), and per row one arc for every other cover vertex within k
// hops (k < 0: at any distance), ascending by target. Each index build
// buckets Dist its own way; the builds are tested arc-for-arc against this.
func ReferenceRows(g *graph.Graph, list []graph.Vertex, k int) [][]CoverArc {
	rows := make([][]CoverArc, len(list))
	for i, u := range list {
		dist := graph.BFSDistances(g, u, graph.Forward)
		for j, v := range list {
			if d := dist[v]; j != i && d != graph.InfDist && (k < 0 || int(d) <= k) {
				rows[i] = append(rows[i], CoverArc{To: int32(j), Dist: d})
			}
		}
	}
	return rows
}
