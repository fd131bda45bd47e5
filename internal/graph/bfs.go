package graph

// This file implements the breadth-first searches the paper's algorithms
// are built on. BFS is the one bounded, level-synchronous engine every
// traversal in the module runs: Algorithm 1's per-cover k-hop BFS (Lines
// 4–8), the dynamic index's repair and collection sweeps, the k-hop ball
// fallback of neighborhood enumeration and (h,k)-reach's ≤h expansions.
// KHopReach is the online baseline (µ-BFS of Table 7) with its own
// early-exit loop, and BFSDistances the reference oracle, which shares no
// code with the engine it checks.

// InfDist marks an unreachable vertex in distance slices.
const InfDist int32 = -1

// Direction selects which adjacency a traversal follows.
type Direction int

const (
	// Forward follows out-edges (computes distances from the source).
	Forward Direction = iota
	// Backward follows in-edges (computes distances to the source).
	Backward
)

// Overlay is a per-vertex edge delta over a base Graph, the form in which
// the dynamic index keeps its mutations between compactions. Every field is
// indexed by Direction: [Forward] is the out-side, [Backward] the in-side.
// Dirty[dir] has bit v set iff v carries a delta on that side; Add[dir][v]
// and Rem[dir][v] are the sorted neighbors added to and removed from v's
// base list. A vertex whose bit is clear has exactly its base adjacency.
type Overlay struct {
	Dirty    [2][]uint64
	Add, Rem [2]map[Vertex][]Vertex
}

// NewOverlay returns an empty overlay for a graph with n vertices.
func NewOverlay(n int) Overlay {
	words := (n + 63) / 64
	var ov Overlay
	for dir := range ov.Dirty {
		ov.Dirty[dir] = make([]uint64, words)
		ov.Add[dir] = make(map[Vertex][]Vertex)
		ov.Rem[dir] = make(map[Vertex][]Vertex)
	}
	return ov
}

// AppendLive appends to buf the live adjacency of a vertex whose base list
// is base and whose overlay lists are add and rem: the merge of the sorted
// lists base and add, without the entries of the sorted list rem.
func AppendLive(buf, base, add, rem []Vertex) []Vertex {
	i, j, r := 0, 0, 0
	for i < len(base) {
		v := base[i]
		i++
		for r < len(rem) && rem[r] < v {
			r++
		}
		if r < len(rem) && rem[r] == v {
			continue
		}
		for j < len(add) && add[j] < v {
			buf = append(buf, add[j])
			j++
		}
		buf = append(buf, v)
	}
	return append(buf, add[j:]...)
}

// BFS is the bounded breadth-first search engine: a visited bitmap plus
// one visit-order list that is at once the queue, the level store and the
// record of which bits to clear, so Reset costs O(previous ball), not O(n).
// Vertices are stored level by level; a vertex's hop distance is the index
// of its level. The zero value is ready to use and sizes itself to the
// graph on Reset. Not safe for concurrent use; keep one per goroutine.
//
// A traversal is Reset, Visit of the seeds into the open level (level 0),
// then Expand, which closes the open level and opens the next one holding
// every unvisited neighbor. Callers may Visit more seeds into a later open
// level before expanding it, and poll for cancellation between levels.
type BFS struct {
	visited []uint64 // bitmap over vertex ids
	order   []Vertex // every visited vertex, level by level
	start   []int    // start[d]: offset in order of level d's first vertex
	live    []Vertex // the overlay-applied list of the dirty vertex expanding
}

// Reset starts a traversal over a graph with n vertices: nothing visited,
// level 0 open and empty.
func (b *BFS) Reset(n int) {
	if words := (n + 63) / 64; words > len(b.visited) {
		b.visited = make([]uint64, words)
	} else {
		// Every set bit has its vertex in order: zeroing each one's whole
		// word (duplicates are harmless) clears the bitmap.
		for _, v := range b.order {
			b.visited[v>>6] = 0
		}
	}
	b.order = b.order[:0]
	b.start = append(b.start[:0], 0)
}

// Visit adds v to the open level unless it was already visited, and
// reports whether it did.
func (b *BFS) Visit(v Vertex) bool {
	w, bit := &b.visited[v>>6], uint64(1)<<(uint(v)&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	b.order = append(b.order, v)
	return true
}

// Seen reports whether v has been visited since the last Reset.
func (b *BFS) Seen(v Vertex) bool { return b.visited[v>>6]&(1<<(uint(v)&63)) != 0 }

// Depth returns the index of the open level: the number of Expand calls
// since Reset.
func (b *BFS) Depth() int { return len(b.start) - 1 }

// Level returns the vertices at hop distance d from the seeds, d ≤ Depth().
// The slice aliases the engine and is valid until its next Visit or Expand.
func (b *BFS) Level(d int) []Vertex {
	if d == b.Depth() {
		return b.order[b.start[d]:]
	}
	return b.order[b.start[d]:b.start[d+1]]
}

// Visited returns every visited vertex, level by level (seeds first). The
// slice aliases the engine.
func (b *BFS) Visited() []Vertex { return b.order }

// Expand closes the open level and opens the next: every vertex adjacent
// (following dir) to the closed level and not yet visited, in visit order.
// It returns the new level. Adjacency is g's with ov applied (nil: g's
// own); a vertex whose dirty bit is clear reads its CSR slice directly, and
// only a dirty vertex fetches its delta lists, merged into a buffer so the
// marking loop stays one tight pass over a slice.
func (b *BFS) Expand(g *Graph, ov *Overlay, dir Direction) []Vertex {
	head, adj := g.outHead, g.outAdj
	if dir == Backward {
		head, adj = g.inHead, g.inAdj
	}
	var dirty []uint64
	if ov != nil {
		dirty = ov.Dirty[dir]
	}
	visited, order := b.visited, b.order
	lo, hi := b.start[len(b.start)-1], len(order)
	b.start = append(b.start, hi)
	for i := lo; i < hi; i++ {
		u := order[i]
		nbrs := adj[head[u]:head[u+1]]
		if dirty != nil && dirty[u>>6]&(1<<(uint(u)&63)) != 0 {
			b.live = AppendLive(b.live[:0], nbrs, ov.Add[dir][u], ov.Rem[dir][u])
			nbrs = b.live
		}
		for _, w := range nbrs {
			if word, bit := visited[w>>6], uint64(1)<<(uint(w)&63); word&bit == 0 {
				visited[w>>6] = word | bit
				order = append(order, w)
			}
		}
	}
	b.order = order
	return order[hi:]
}

// ExpandTo expands level after level until level k is open or the open
// level is empty (k < 0: until empty).
func (b *BFS) ExpandTo(g *Graph, ov *Overlay, dir Direction, k int) {
	for (k < 0 || b.Depth() < k) && len(b.Level(b.Depth())) > 0 {
		b.Expand(g, ov, dir)
	}
}

// Run is a k-hop BFS from src (k < 0: unbounded): Reset, Visit(src),
// ExpandTo(k). Level(d) then lists the vertices at distance d.
func (b *BFS) Run(g *Graph, ov *Overlay, src Vertex, k int, dir Direction) {
	b.Reset(g.NumVertices())
	b.Visit(src)
	b.ExpandTo(g, ov, dir, k)
}

// BFSDistances returns a fresh slice of the distances from src following
// dir, InfDist for unreachable vertices. It is the reference oracle the
// engine is tested against, so it is a plain queue-and-slice BFS of its
// own.
func BFSDistances(g *Graph, src Vertex, dir Direction) []int32 {
	dist := make([]int32, g.NumVertices())
	for v := range dist {
		dist[v] = InfDist
	}
	dist[src] = 0
	queue := []Vertex{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs := g.OutNeighbors(u)
		if dir == Backward {
			nbrs = g.InNeighbors(u)
		}
		for _, w := range nbrs {
			if dist[w] == InfDist {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// KHopReach reports whether t is reachable from s within k hops (k < 0:
// any number) by forward BFS that stops at the first edge into t. It is
// the online baseline (µ-BFS in Table 7) and the pairwise ground truth in
// tests; b supplies the visited bitmap and is left in an unspecified state.
func KHopReach(g *Graph, s, t Vertex, k int, b *BFS) bool {
	if s == t {
		return true
	}
	b.Reset(g.NumVertices())
	b.Visit(s)
	for lo, d := 0, 0; k < 0 || d < k; d++ {
		hi := len(b.order)
		if lo == hi {
			break
		}
		for _, u := range b.order[lo:hi] {
			for _, w := range g.OutNeighbors(u) {
				if w == t {
					return true
				}
				b.Visit(w)
			}
		}
		lo = hi
	}
	return false
}
