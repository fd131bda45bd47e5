package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Vertex identifies a vertex. Graphs in this module are bounded to 2^31-1
// vertices, which comfortably covers the paper's datasets (≤ 40,051
// vertices) and laptop-scale experiments.
type Vertex = int32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst Vertex
}

// Graph is an immutable directed, unweighted graph in compressed sparse row
// (CSR) form. Both out- and in-adjacency are materialized so that queries
// can enumerate outNei(s) and inNei(t) in O(deg) with no allocation, as
// Algorithm 2 of the paper requires. Adjacency lists are sorted ascending.
type Graph struct {
	outHead []int32 // len n+1; outAdj[outHead[v]:outHead[v+1]] are out-neighbors of v
	outAdj  []Vertex
	inHead  []int32
	inAdj   []Vertex
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return len(g.outHead) - 1 }

// NumEdges returns m, the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// OutNeighbors returns the sorted out-neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v Vertex) []Vertex {
	return g.outAdj[g.outHead[v]:g.outHead[v+1]]
}

// InNeighbors returns the sorted in-neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v Vertex) []Vertex {
	return g.inAdj[g.inHead[v]:g.inHead[v+1]]
}

// OutDegree returns outDeg(v, G).
func (g *Graph) OutDegree(v Vertex) int { return int(g.outHead[v+1] - g.outHead[v]) }

// InDegree returns inDeg(v, G).
func (g *Graph) InDegree(v Vertex) int { return int(g.inHead[v+1] - g.inHead[v]) }

// Degree returns Deg(v, G) = |inNei(v) ∪ outNei(v)| per Table 1 of the
// paper. Because both adjacency lists are sorted this is a linear merge.
func (g *Graph) Degree(v Vertex) int {
	in, out := g.InNeighbors(v), g.OutNeighbors(v)
	i, j, n := 0, 0, 0
	for i < len(in) && j < len(out) {
		switch {
		case in[i] < out[j]:
			i++
		case in[i] > out[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + (len(in) - i) + (len(out) - j)
}

// HasEdge reports whether the directed edge (u, v) exists, by binary search
// over the shorter of u's out-list and v's in-list.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if g.OutDegree(u) <= g.InDegree(v) {
		return containsSorted(g.OutNeighbors(u), v)
	}
	return containsSorted(g.InNeighbors(v), u)
}

func containsSorted(adj []Vertex, v Vertex) bool {
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// ForEachEdge calls fn for every directed edge in ascending (src, dst)
// order.
func (g *Graph) ForEachEdge(fn func(u, v Vertex)) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(Vertex(u)) {
			fn(Vertex(u), v)
		}
	}
}

// Edges returns all edges in ascending (src, dst) order. It allocates; use
// ForEachEdge to avoid the copy.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v Vertex) { es = append(es, Edge{u, v}) })
	return es
}

// MaxDegree returns max over v of Deg(v, G), the Degmax column of Table 2.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > max {
			max = d
		}
	}
	return max
}

// Reverse returns the transpose graph (every edge flipped). Because both
// directions are stored, this is an O(1) view-style copy of the slices.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		outHead: g.inHead,
		outAdj:  g.inAdj,
		inHead:  g.outHead,
		inAdj:   g.outAdj,
	}
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n vertices. Edges may be
// added in any order; duplicates are removed at Build time.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// NumEdgesAdded returns the number of AddEdge calls so far (before
// deduplication).
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

// AddEdge records the directed edge (u, v). Self-loops are allowed (they are
// meaningless for reachability but must not corrupt the structure).
func (b *Builder) AddEdge(u, v Vertex) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v})
}

// HasEdgePending reports whether (u,v) has already been added. It is O(#edges)
// and intended for generators that avoid duplicates probabilistically; Build
// deduplicates regardless.
func (b *Builder) HasEdgePending(u, v Vertex) bool {
	for _, e := range b.edges {
		if e.Src == u && e.Dst == v {
			return true
		}
	}
	return false
}

// Build produces the immutable CSR graph. Parallel (duplicate) edges are
// collapsed. The builder remains usable afterwards.
func (b *Builder) Build() *Graph {
	edges := slices.Clone(b.edges)
	slices.SortFunc(edges, compareEdges)
	return FromSortedEdges(b.n, slices.Compact(edges))
}

// compareEdges orders edges by (src, dst).
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// FromEdges builds a graph directly from an edge list (deduplicated).
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// FromSortedEdges builds a graph from edges already sorted by (src, dst) and
// deduplicated. It is the fast path used by Build and by deserialization.
func FromSortedEdges(n int, edges []Edge) *Graph {
	g := &Graph{
		outHead: make([]int32, n+1),
		outAdj:  make([]Vertex, len(edges)),
		inHead:  make([]int32, n+1),
		inAdj:   make([]Vertex, len(edges)),
	}
	for _, e := range edges {
		g.outHead[e.Src+1]++
		g.inHead[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.outHead[v+1] += g.outHead[v]
		g.inHead[v+1] += g.inHead[v]
	}
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for _, e := range edges {
		g.outAdj[g.outHead[e.Src]+outPos[e.Src]] = e.Dst
		outPos[e.Src]++
		g.inAdj[g.inHead[e.Dst]+inPos[e.Dst]] = e.Src
		inPos[e.Dst]++
	}
	// Out-adjacency is sorted by construction (edges sorted by src,dst); the
	// in-adjacency of each vertex is filled in src order and therefore also
	// sorted. Verify cheaply in debug builds via tests, not here.
	return g
}

// Subgraph returns the induced subgraph on keep (a set of vertices), along
// with the mapping from new vertex ids to original ids. Vertices are
// renumbered densely in ascending original order.
func (g *Graph) Subgraph(keep []Vertex) (*Graph, []Vertex) {
	sorted := slices.Clone(keep)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	remap := make(map[Vertex]Vertex, len(sorted))
	for i, v := range sorted {
		remap[v] = Vertex(i)
	}
	b := NewBuilder(len(sorted))
	for _, u := range sorted {
		for _, v := range g.OutNeighbors(u) {
			if nv, ok := remap[v]; ok {
				b.AddEdge(remap[u], nv)
			}
		}
	}
	return b.Build(), sorted
}
