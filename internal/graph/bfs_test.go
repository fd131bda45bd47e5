package graph_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// The BFS engine against graph.BFSDistances, the plain allocating BFS that
// shares no code with it: every traversal below is run both ways and the
// hop distances compared vertex by vertex.

// engineDist reads the distances of b's last traversal off its levels,
// InfDist for every vertex it did not visit.
func engineDist(b *graph.BFS, n int) []int32 {
	dist := slices.Repeat([]int32{graph.InfDist}, n)
	for d := 0; d <= b.Depth(); d++ {
		for _, v := range b.Level(d) {
			if dist[v] != graph.InfDist {
				panic(fmt.Sprintf("vertex %d on levels %d and %d", v, dist[v], d))
			}
			dist[v] = int32(d)
		}
	}
	return dist
}

// oracleDist is the hop distance from the nearest seed, with seeds0 at
// distance 0 and seeds1 at distance 1, clipped to k (k < 0: unbounded).
func oracleDist(g *graph.Graph, seeds0, seeds1 []graph.Vertex, k int, dir graph.Direction) []int32 {
	dist := slices.Repeat([]int32{graph.InfDist}, g.NumVertices())
	relax := func(seeds []graph.Vertex, offset int32) {
		for _, s := range seeds {
			for v, d := range graph.BFSDistances(g, s, dir) {
				if d != graph.InfDist && (dist[v] == graph.InfDist || d+offset < dist[v]) {
					dist[v] = d + offset
				}
			}
		}
	}
	relax(seeds0, 0)
	relax(seeds1, 1)
	for v, d := range dist {
		if k >= 0 && int(d) > k {
			dist[v] = graph.InfDist
		}
	}
	return dist
}

func diffDist(t *testing.T, label string, got, want []int32) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d at distance %d, oracle %d", label, v, got[v], want[v])
		}
	}
}

var engineKs = []int{0, 1, 2, 3, -1}

func TestBFSEngineMatchesOracle(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", testgraph.Random(120, 300, 7)},
		{"lattice", testgraph.Lattice(150, 3)},
		{"star-out", testgraph.Star(60, true)},
		{"star-in", testgraph.Star(60, false)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.NumVertices()
			rng := rand.New(rand.NewPCG(uint64(n), 11))
			var b graph.BFS
			for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
				for _, k := range engineKs {
					for s := 0; s < n; s += 7 {
						src := graph.Vertex(s)
						b.Run(g, nil, src, k, dir)
						label := fmt.Sprintf("dir %d k %d src %d", dir, k, s)
						diffDist(t, label, engineDist(&b, n), oracleDist(g, []graph.Vertex{src}, nil, k, dir))
					}
					if k == 0 {
						continue // no level 1 to seed
					}
					// Seeds at levels 0 and 1, as the dynamic index's
					// insertion sweep places them; level-1 seeds already
					// reached from level 0 are no-ops.
					for trial := 0; trial < 20; trial++ {
						var seeds0, seeds1 []graph.Vertex
						for range rng.IntN(3) {
							seeds0 = append(seeds0, graph.Vertex(rng.IntN(n)))
						}
						for range 1 + rng.IntN(3) {
							seeds1 = append(seeds1, graph.Vertex(rng.IntN(n)))
						}
						b.Reset(n)
						for _, v := range seeds0 {
							b.Visit(v)
						}
						b.Expand(g, nil, dir)
						for _, v := range seeds1 {
							b.Visit(v)
						}
						b.ExpandTo(g, nil, dir, k)
						label := fmt.Sprintf("dir %d k %d seeds %v + %v", dir, k, seeds0, seeds1)
						diffDist(t, label, engineDist(&b, n), oracleDist(g, seeds0, seeds1, k, dir))
					}
				}
			}
		})
	}
}

// overlayOf derives the overlay that turns base into the edge set live.
func overlayOf(base *graph.Graph, live map[graph.Edge]bool) (ov graph.Overlay, add, rem []graph.Edge) {
	ov = graph.NewOverlay(base.NumVertices())
	for e, ok := range live {
		if ok && !base.HasEdge(e.Src, e.Dst) {
			add = append(add, e)
		}
	}
	for u := range base.NumVertices() {
		for _, v := range base.OutNeighbors(graph.Vertex(u)) {
			if e := (graph.Edge{Src: graph.Vertex(u), Dst: v}); !live[e] {
				rem = append(rem, e)
			}
		}
	}
	for _, d := range []struct {
		edges []graph.Edge
		set   *[2]map[graph.Vertex][]graph.Vertex
	}{{add, &ov.Add}, {rem, &ov.Rem}} {
		for _, e := range d.edges {
			for dir, end := range [2][2]graph.Vertex{{e.Src, e.Dst}, {e.Dst, e.Src}} {
				u, v := end[0], end[1]
				d.set[dir][u] = append(d.set[dir][u], v)
				slices.Sort(d.set[dir][u])
				ov.Dirty[dir][u>>6] |= 1 << (u & 63)
			}
		}
	}
	return ov, add, rem
}

func TestBFSEngineOverlayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0x0e1a))
	n := 80
	base := testgraph.Random(n, 240, 21)
	live := make(map[graph.Edge]bool)
	for u := range n {
		for _, v := range base.OutNeighbors(graph.Vertex(u)) {
			live[graph.Edge{Src: graph.Vertex(u), Dst: v}] = true
		}
	}
	var b graph.BFS
	for step := 0; step < 60; step++ {
		// Four kinds of change: a fresh add, a base removal, an un-add
		// (removing an added edge) and an un-remove (re-adding a removed
		// base edge). Adds and removes of random pairs reach all four.
		for range 4 {
			e := graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
			if u := e.Src; rng.IntN(2) == 0 && len(base.OutNeighbors(u)) > 0 {
				e.Dst = base.OutNeighbors(u)[rng.IntN(len(base.OutNeighbors(u)))]
			}
			live[e] = !live[e]
		}
		ov, add, rem := overlayOf(base, live)
		rebuilt := graph.Rebuild(base, add, rem)
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			for _, k := range engineKs {
				src := graph.Vertex(rng.IntN(n))
				b.Run(base, &ov, src, k, dir)
				label := fmt.Sprintf("step %d dir %d k %d src %d", step, dir, k, src)
				diffDist(t, label, engineDist(&b, n), oracleDist(rebuilt, []graph.Vertex{src}, nil, k, dir))
			}
		}
	}
}

// TestBFSEngineReuseAcrossSizes runs one engine over graphs whose vertex
// count shrinks and grows: the bitmap must size itself up and never carry
// a bit from one traversal into the next.
func TestBFSEngineReuseAcrossSizes(t *testing.T) {
	var b graph.BFS
	for i, n := range []int{200, 10, 500, 3, 64, 65, 1, 130, 700} {
		g := testgraph.Random(n, 3*n, uint64(i))
		for _, k := range engineKs {
			src := graph.Vertex(n / 2)
			b.Run(g, nil, src, k, graph.Forward)
			diffDist(t, fmt.Sprintf("n %d k %d", n, k), engineDist(&b, n), oracleDist(g, []graph.Vertex{src}, nil, k, graph.Forward))
		}
	}
}
