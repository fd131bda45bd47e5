package cover_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

var allStrategies = []cover.Strategy{
	cover.RandomEdge, cover.DegreePrioritized, cover.GreedyVertex,
}

func TestSetBasics(t *testing.T) {
	s := cover.NewSet(5, []graph.Vertex{3, 1, 3})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", s.Len())
	}
	if !s.Contains(1) || !s.Contains(3) || s.Contains(0) {
		t.Error("membership wrong")
	}
	if l := s.List(); len(l) != 2 || l[0] != 1 || l[1] != 3 {
		t.Errorf("List = %v, want sorted [1 3]", l)
	}
}

func TestCoversAreValid(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 2 + rng.IntN(60)
		g := testgraph.Random(n, rng.IntN(5*n), seed)
		for _, strat := range allStrategies {
			s := cover.VertexCover(g, strat, seed)
			if !cover.IsVertexCover(g, s) {
				t.Fatalf("seed %d: %v produced an invalid cover", seed, strat)
			}
		}
	}
}

func TestCoverWithSelfLoops(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(1, 2)
	g := b.Build()
	for _, strat := range allStrategies {
		s := cover.VertexCover(g, strat, 1)
		if !s.Contains(0) {
			t.Errorf("%v: self-loop vertex 0 not in cover", strat)
		}
		if !cover.IsVertexCover(g, s) {
			t.Errorf("%v: invalid cover with self-loop", strat)
		}
	}
}

func TestTwoApproximationBound(t *testing.T) {
	// |S| ≤ 2·OPT for the matching-based strategies, verified against the
	// exact branch-and-bound solver on small random graphs.
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 2 + rng.IntN(14)
		g := testgraph.Random(n, rng.IntN(3*n), seed+100)
		opt := cover.ExactVertexCover(g)
		for _, strat := range []cover.Strategy{cover.RandomEdge, cover.DegreePrioritized} {
			s := cover.VertexCover(g, strat, seed)
			if s.Len() > 2*opt {
				t.Fatalf("seed %d: %v cover %d > 2·OPT=%d", seed, strat, s.Len(), 2*opt)
			}
		}
	}
}

func TestExactVertexCoverKnownValues(t *testing.T) {
	// Path 0→1→2→3→4: MVC = 2 ({1,3}).
	if got := cover.ExactVertexCover(testgraph.Path(5)); got != 2 {
		t.Errorf("path5 MVC = %d, want 2", got)
	}
	// Star: MVC = 1 (the hub).
	if got := cover.ExactVertexCover(testgraph.Star(10, true)); got != 1 {
		t.Errorf("star MVC = %d, want 1", got)
	}
	// Cycle of 5: MVC = 3.
	if got := cover.ExactVertexCover(testgraph.Cycle(5)); got != 3 {
		t.Errorf("cycle5 MVC = %d, want 3", got)
	}
	// Edgeless graph: 0.
	if got := cover.ExactVertexCover(graph.NewBuilder(4).Build()); got != 0 {
		t.Errorf("edgeless MVC = %d, want 0", got)
	}
}

func TestDegreePrioritizedIncludesHub(t *testing.T) {
	// A hub with many spokes plus a few spoke-to-spoke edges: the hub must
	// be picked (it is an endpoint of the highest-degree edges).
	b := graph.NewBuilder(12)
	for i := 1; i < 12; i++ {
		b.AddEdge(0, graph.Vertex(i))
	}
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	s := cover.VertexCover(g, cover.DegreePrioritized, 0)
	if !s.Contains(0) {
		t.Fatalf("degree-prioritized cover %v misses the hub", s.List())
	}
}

func TestGreedyVertexSmallOnStar(t *testing.T) {
	g := testgraph.Star(50, false)
	s := cover.VertexCover(g, cover.GreedyVertex, 0)
	if s.Len() != 1 || !s.Contains(0) {
		t.Fatalf("greedy cover of star = %v, want just the hub", s.List())
	}
}

func TestRandomEdgeDeterministicPerSeed(t *testing.T) {
	g := testgraph.Random(40, 120, 3)
	a := cover.VertexCover(g, cover.RandomEdge, 7)
	b := cover.VertexCover(g, cover.RandomEdge, 7)
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different covers: %d vs %d", a.Len(), b.Len())
	}
	for i, v := range a.List() {
		if b.List()[i] != v {
			t.Fatalf("same seed, different covers at %d", i)
		}
	}
}

func TestPaperExampleCover(t *testing.T) {
	// Example 1: {b,d,g,i} is a valid vertex cover of Figure 1.
	g := testgraph.PaperFigure1()
	s := cover.NewSet(g.NumVertices(),
		[]graph.Vertex{testgraph.B, testgraph.D, testgraph.G, testgraph.I})
	if !cover.IsVertexCover(g, s) {
		t.Fatal("paper's cover {b,d,g,i} rejected")
	}
	// And dropping any one vertex breaks it (it is minimal).
	for _, drop := range s.List() {
		var rest []graph.Vertex
		for _, v := range s.List() {
			if v != drop {
				rest = append(rest, v)
			}
		}
		if cover.IsVertexCover(g, cover.NewSet(g.NumVertices(), rest)) {
			t.Errorf("cover still valid without %s", testgraph.VertexName(drop))
		}
	}
}

func TestHHopCoverValidity(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 31))
		n := 2 + rng.IntN(40)
		g := testgraph.Random(n, rng.IntN(4*n), seed+7)
		for _, h := range []int{1, 2, 3} {
			s := cover.HHopCover(g, h)
			if cover.HasUncoveredHPath(g, s, h) {
				t.Fatalf("seed %d h=%d: uncovered length-%d path remains", seed, h, h)
			}
		}
	}
}

func TestHHopCoverShrinksWithH(t *testing.T) {
	// Corollary 1: a larger h admits a (weakly) smaller minimum cover. Our
	// approximations do not guarantee monotonicity pointwise, but on a long
	// path the effect is exact and dramatic.
	g := testgraph.Path(61)
	s1 := cover.HHopCover(g, 1)
	s2 := cover.HHopCover(g, 2)
	s4 := cover.HHopCover(g, 4)
	if !(s4.Len() <= s2.Len() && s2.Len() <= s1.Len()) {
		t.Errorf("cover sizes on path: h1=%d h2=%d h4=%d, want nonincreasing",
			s1.Len(), s2.Len(), s4.Len())
	}
}

func TestHHopApproximationBound(t *testing.T) {
	// |S| ≤ (h+1)·OPT_h on small graphs, against the exact solver.
	for seed := uint64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 2 + rng.IntN(10)
		g := testgraph.Random(n, rng.IntN(3*n), seed+55)
		for _, h := range []int{1, 2} {
			opt := cover.ExactHHopCover(g, h)
			s := cover.HHopCover(g, h)
			if s.Len() > (h+1)*opt {
				t.Fatalf("seed %d h=%d: |S|=%d > (h+1)·OPT=%d", seed, h, s.Len(), (h+1)*opt)
			}
		}
	}
}

func TestHHopCoverOnDAGNoPath(t *testing.T) {
	// Graph with max path length 1 needs an empty 2-hop cover.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	s := cover.HHopCover(g, 2)
	if s.Len() != 0 {
		t.Errorf("2-hop cover of depth-1 graph = %v, want empty", s.List())
	}
}

func TestPaperExampleHHopCover(t *testing.T) {
	// Example 3: {d,e,g} is a 2-hop vertex cover of Figure 3 (same graph as
	// Figure 1).
	g := testgraph.PaperFigure1()
	s := cover.NewSet(g.NumVertices(),
		[]graph.Vertex{testgraph.D, testgraph.E, testgraph.G})
	if cover.HasUncoveredHPath(g, s, 2) {
		t.Fatal("paper's 2-hop cover {d,e,g} leaves an uncovered 2-path")
	}
	// Our constructor must also produce a valid 2-hop cover, and per
	// Corollary 1's practical observation it should not exceed the plain VC.
	got := cover.HHopCover(g, 2)
	if cover.HasUncoveredHPath(g, got, 2) {
		t.Fatal("constructed 2-hop cover invalid")
	}
}

func TestExactHHopKnownValues(t *testing.T) {
	// Path of 7 vertices (6 edges): minimum 2-hop cover must hit every
	// window of 2 consecutive edges; OPT = 2 ({2,4} ... check: paths of
	// length 2 are (0,1,2),(1,2,3),(2,3,4),(3,4,5),(4,5,6); {2,5} hits
	// (0,1,2)?yes 2; (1,2,3) yes; (2,3,4) yes; (3,4,5) yes 5; (4,5,6) yes.
	// So OPT = 2.
	if got := cover.ExactHHopCover(testgraph.Path(7), 2); got != 2 {
		t.Errorf("path7 2-hop OPT = %d, want 2", got)
	}
	if got := cover.ExactHHopCover(testgraph.Path(7), 1); got != 3 {
		t.Errorf("path7 1-hop OPT = %d, want 3", got)
	}
}

func TestHHopPanicsOnBadH(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for h=0")
		}
	}()
	cover.HHopCover(testgraph.Path(3), 0)
}

// referenceDegreeOrder is the edge order DegreePrioritized is defined by,
// as a stable comparison sort: descending (max, min) endpoint degree, ties
// in ascending (src, dst) order.
func referenceDegreeOrder(g *graph.Graph) []graph.Edge {
	pri := func(e graph.Edge) (int, int) {
		a, b := g.Degree(e.Src), g.Degree(e.Dst)
		return max(a, b), min(a, b)
	}
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool {
		ai, bi := pri(edges[i])
		aj, bj := pri(edges[j])
		if ai != aj {
			return ai > aj
		}
		return bi > bj
	})
	return edges
}

// TestDegreeOrderMatchesReference: the counting sort must return exactly the
// sequence the stable comparison sort does — the cover, and with it every
// saved index, depends on the order of ties.
func TestDegreeOrderMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"n=0":      graph.NewBuilder(0).Build(),
		"n=1":      graph.NewBuilder(1).Build(),
		"n=1 loop": graph.FromEdges(1, []graph.Edge{{Src: 0, Dst: 0}}),
		"n=2":      graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}),
		"star out": testgraph.Star(40, true), // max degree = m
		"star in":  testgraph.Star(40, false),
		"cycle":    testgraph.Cycle(30), // every degree ties
	}
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		// Few vertices touched by many edges: heavy degree ties, self-loops
		// and, in the upper half of the id range, isolated vertices.
		n := 2 + rng.IntN(40)
		b := graph.NewBuilder(2 * n)
		for i := rng.IntN(6 * n); i > 0; i-- {
			u := graph.Vertex(rng.IntN(n))
			v := graph.Vertex(rng.IntN(n))
			if rng.IntN(8) == 0 {
				v = u
			}
			b.AddEdge(u, v)
		}
		graphs[fmt.Sprintf("random %d", seed)] = b.Build()
	}
	for name, g := range graphs {
		if got, want := cover.DegreeSortedEdges(g), referenceDegreeOrder(g); !slices.Equal(got, want) {
			t.Errorf("%s: counting sort order %v, reference %v", name, got, want)
		}
	}
}
