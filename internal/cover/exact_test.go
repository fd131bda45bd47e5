package cover

import (
	"kreach/internal/graph"
)

// Exact solvers, the oracles of cover_test.go's approximation-ratio tests.
// Exponential time: keep inputs tiny (n ≲ 30 for ExactVertexCover, n ≲ 14
// for ExactHHopCover).

// ExactVertexCover returns the size of a minimum vertex cover of g, by
// branch and bound on uncovered edges: for any uncovered edge (u,v), at
// least one endpoint is in every cover.
func ExactVertexCover(g *graph.Graph) int {
	edges := g.Edges()
	// Strip self-loops; their vertex is forced into every cover.
	forced := map[graph.Vertex]bool{}
	var rest []graph.Edge
	for _, e := range edges {
		if e.Src == e.Dst {
			forced[e.Src] = true
		} else {
			rest = append(rest, e)
		}
	}
	in := make([]bool, g.NumVertices())
	for v := range forced {
		in[v] = true
	}
	best := g.NumVertices() + 1
	var solve func(count int)
	solve = func(count int) {
		if count >= best {
			return
		}
		// Find the first uncovered edge.
		var pick *graph.Edge
		for i := range rest {
			if !in[rest[i].Src] && !in[rest[i].Dst] {
				pick = &rest[i]
				break
			}
		}
		if pick == nil {
			best = count
			return
		}
		in[pick.Src] = true
		solve(count + 1)
		in[pick.Src] = false
		in[pick.Dst] = true
		solve(count + 1)
		in[pick.Dst] = false
	}
	solve(len(forced))
	return best
}

// ExactHHopCover returns the size of a minimum h-hop vertex cover of g, by
// branch and bound: for any uncovered simple path with h edges, at least one
// of its h+1 vertices is in every h-hop cover.
func ExactHHopCover(g *graph.Graph, h int) int {
	if h < 1 {
		panic("cover: h must be >= 1")
	}
	n := g.NumVertices()
	in := make([]bool, n)
	onPath := make([]bool, n)
	path := make([]graph.Vertex, 0, h+1)
	// findUncovered fills path with a simple directed path of h edges that
	// avoids `in`, returning false if none exists.
	var dfs func(v graph.Vertex, depth int) bool
	dfs = func(v graph.Vertex, depth int) bool {
		if depth == h {
			return true
		}
		for _, w := range g.OutNeighbors(v) {
			if in[w] || onPath[w] {
				continue
			}
			path = append(path, w)
			onPath[w] = true
			if dfs(w, depth+1) {
				return true
			}
			onPath[w] = false
			path = path[:len(path)-1]
		}
		return false
	}
	findUncovered := func() []graph.Vertex {
		for v := 0; v < n; v++ {
			if in[v] {
				continue
			}
			path = path[:0]
			path = append(path, graph.Vertex(v))
			onPath[v] = true
			ok := dfs(graph.Vertex(v), 0)
			for _, u := range path {
				onPath[u] = false
			}
			if ok {
				return path
			}
		}
		return nil
	}
	best := n + 1
	var solve func(count int)
	solve = func(count int) {
		if count >= best {
			return
		}
		p := findUncovered()
		if p == nil {
			best = count
			return
		}
		branch := make([]graph.Vertex, len(p))
		copy(branch, p)
		for _, v := range branch {
			in[v] = true
			solve(count + 1)
			in[v] = false
		}
	}
	solve(0)
	return best
}
