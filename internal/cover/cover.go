package cover

import (
	"math/rand/v2"

	"kreach/internal/graph"
)

// Set is a vertex set with O(1) membership and a stable sorted list view.
type Set struct {
	member []bool
	list   []graph.Vertex
}

// NewSet builds a Set over a graph with n vertices from the given members.
func NewSet(n int, members []graph.Vertex) *Set {
	s := &Set{member: make([]bool, n)}
	size := 0
	for _, v := range members {
		if !s.member[v] {
			s.member[v] = true
			size++
		}
	}
	// Walking the membership array yields the ascending list directly.
	s.list = make([]graph.Vertex, 0, size)
	for v, in := range s.member {
		if in {
			s.list = append(s.list, graph.Vertex(v))
		}
	}
	return s
}

// Contains reports membership of v.
func (s *Set) Contains(v graph.Vertex) bool { return s.member[v] }

// Len returns the number of members.
func (s *Set) Len() int { return len(s.list) }

// List returns the members in ascending order. The slice aliases internal
// storage and must not be modified.
func (s *Set) List() []graph.Vertex { return s.list }

// IDs maps every vertex to its position in List, -1 outside the set: the
// cover ids an index numbers its rows by.
func (s *Set) IDs() []int32 {
	ids := make([]int32, len(s.member))
	for v := range ids {
		ids[v] = -1
	}
	for i, v := range s.list {
		ids[v] = int32(i)
	}
	return ids
}

// Strategy selects how the vertex cover is computed.
type Strategy int

const (
	// RandomEdge is the paper's baseline 2-approximation (Section 4.1.1):
	// repeatedly pick a random uncovered edge and take both endpoints.
	RandomEdge Strategy = iota
	// DegreePrioritized processes edges in decreasing order of their
	// maximum endpoint degree (Section 4.3). Still a maximal matching, so
	// the 2-approximation bound holds, but high-degree vertices enter the
	// cover first, which both shrinks the cover in practice and moves
	// celebrity queries into the cheap Case 1 of Algorithm 2.
	DegreePrioritized
	// GreedyVertex repeatedly takes the vertex covering the most uncovered
	// edges. No constant-factor guarantee (ln n), but usually the smallest
	// cover; provided as an ablation.
	GreedyVertex
)

func (s Strategy) String() string {
	switch s {
	case RandomEdge:
		return "random-edge"
	case DegreePrioritized:
		return "degree-prioritized"
	case GreedyVertex:
		return "greedy-vertex"
	}
	return "unknown"
}

// VertexCover computes a vertex cover of g with the given strategy. seed
// drives the random choices of the RandomEdge strategy (and tie-breaking
// shuffles elsewhere); covers are deterministic for a fixed seed.
func VertexCover(g *graph.Graph, strat Strategy, seed uint64) *Set {
	switch strat {
	case RandomEdge:
		return matchingCover(g, shuffledEdges(g, seed))
	case DegreePrioritized:
		return matchingCover(g, degreeSortedEdges(g))
	case GreedyVertex:
		return greedyVertexCover(g)
	default:
		panic("cover: unknown strategy")
	}
}

func shuffledEdges(g *graph.Graph, seed uint64) []graph.Edge {
	edges := g.Edges()
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// degreeSortedEdges returns the edges by descending (max, min) endpoint
// degree, ties in ascending (src, dst) order. A degree is an integer in
// [0, 2n), so the order is two stable counting passes — least significant
// key first — and linear in |E| + max degree, as Algorithm 1 assumes.
func degreeSortedEdges(g *graph.Graph) []graph.Edge {
	deg := make([]int32, g.NumVertices())
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = int32(g.Degree(graph.Vertex(v)))
		maxDeg = max(maxDeg, deg[v])
	}
	edges := g.Edges()
	tmp := make([]graph.Edge, len(edges))
	start := make([]int32, maxDeg+1)
	countingPassDesc(tmp, edges, deg, start, false)
	countingPassDesc(edges, tmp, deg, start, true)
	return edges
}

// countingPassDesc stably scatters src into dst by descending endpoint
// degree: the larger of an edge's two when byMax, else the smaller. start is
// scratch with one entry per degree 0..max.
func countingPassDesc(dst, src []graph.Edge, deg, start []int32, byMax bool) {
	key := func(e graph.Edge) int32 {
		if byMax {
			return max(deg[e.Src], deg[e.Dst])
		}
		return min(deg[e.Src], deg[e.Dst])
	}
	clear(start)
	for _, e := range src {
		start[key(e)]++
	}
	// start[d] becomes the number of edges with a key above d.
	above := int32(0)
	for d := len(start) - 1; d >= 0; d-- {
		start[d], above = above, above+start[d]
	}
	for _, e := range src {
		k := key(e)
		dst[start[k]] = e
		start[k]++
	}
}

// matchingCover runs the maximal-matching 2-approximation over edges in the
// given order: an edge whose endpoints are both uncovered contributes both
// endpoints. Self-loops contribute their single vertex (a self-loop (v,v)
// can only be covered by v).
func matchingCover(g *graph.Graph, edges []graph.Edge) *Set {
	in := make([]bool, g.NumVertices())
	var list []graph.Vertex
	add := func(v graph.Vertex) {
		if !in[v] {
			in[v] = true
			list = append(list, v)
		}
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			add(e.Src)
			continue
		}
		if !in[e.Src] && !in[e.Dst] {
			add(e.Src)
			add(e.Dst)
		}
	}
	return NewSet(g.NumVertices(), list)
}

// greedyVertexCover repeatedly selects the vertex with the most uncovered
// incident edges, using a lazy-deletion max-heap over degrees.
func greedyVertexCover(g *graph.Graph) *Set {
	n := g.NumVertices()
	// Remaining undirected degree of each vertex (union of in/out neighbors
	// not yet covered). We track covered vertices; an edge is uncovered iff
	// neither endpoint is covered.
	covered := make([]bool, n)
	remaining := make([]int, n)
	for v := 0; v < n; v++ {
		remaining[v] = g.Degree(graph.Vertex(v))
	}
	// Lazy heap of (degree, vertex).
	h := &degHeap{}
	for v := 0; v < n; v++ {
		if remaining[v] > 0 {
			h.push(degEntry{remaining[v], graph.Vertex(v)})
		}
	}
	var list []graph.Vertex
	uncoveredNeighbors := func(v graph.Vertex) int {
		cnt := 0
		forEachNeighbor(g, v, func(u graph.Vertex) {
			if !covered[u] {
				cnt++
			}
		})
		return cnt
	}
	for h.len() > 0 {
		e := h.pop()
		if covered[e.v] {
			continue
		}
		cur := uncoveredNeighbors(e.v)
		// Self-loops must force their vertex in even with no other neighbors.
		if g.HasEdge(e.v, e.v) && !covered[e.v] {
			cur++
		}
		if cur == 0 {
			continue
		}
		if cur < e.deg {
			// Stale priority: reinsert with the fresh value.
			h.push(degEntry{cur, e.v})
			continue
		}
		covered[e.v] = true
		list = append(list, e.v)
	}
	return NewSet(n, list)
}

// forEachNeighbor visits the union of in- and out-neighbors of v (each once,
// excluding v itself).
func forEachNeighbor(g *graph.Graph, v graph.Vertex, fn func(graph.Vertex)) {
	in, out := g.InNeighbors(v), g.OutNeighbors(v)
	i, j := 0, 0
	emit := func(u graph.Vertex) {
		if u != v {
			fn(u)
		}
	}
	for i < len(in) && j < len(out) {
		switch {
		case in[i] < out[j]:
			emit(in[i])
			i++
		case in[i] > out[j]:
			emit(out[j])
			j++
		default:
			emit(in[i])
			i++
			j++
		}
	}
	for ; i < len(in); i++ {
		emit(in[i])
	}
	for ; j < len(out); j++ {
		emit(out[j])
	}
}

// IsVertexCover reports whether s covers every edge of g (self-loop (v,v)
// requires v ∈ s).
func IsVertexCover(g *graph.Graph, s *Set) bool {
	ok := true
	g.ForEachEdge(func(u, v graph.Vertex) {
		if !s.Contains(u) && !s.Contains(v) {
			ok = false
		}
	})
	return ok
}

type degEntry struct {
	deg int
	v   graph.Vertex
}

// degHeap is a simple binary max-heap; container/heap's interface would
// force an interface value per operation, and this is on the construction
// critical path for the GreedyVertex ablation.
type degHeap struct{ a []degEntry }

func (h *degHeap) len() int { return len(h.a) }

func (h *degHeap) push(e degEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].deg >= h.a[i].deg {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *degHeap) pop() degEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.a[l].deg > h.a[big].deg {
			big = l
		}
		if r < last && h.a[r].deg > h.a[big].deg {
			big = r
		}
		if big == i {
			break
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
	return top
}
