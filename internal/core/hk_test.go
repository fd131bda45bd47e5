package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// paperHKIndex builds the (2,5)-reach index of Example 3: the Figure 3
// graph (same as Figure 1) with the paper's 2-hop cover {d,e,g}.
func paperHKIndex(t *testing.T) *core.HKIndex {
	t.Helper()
	g := testgraph.PaperFigure1()
	s := cover.NewSet(g.NumVertices(),
		[]graph.Vertex{testgraph.D, testgraph.E, testgraph.G})
	ix, err := core.BuildHKWithCover(g, core.HKOptions{H: 2, K: 5}, s)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestPaperExample3IndexShape(t *testing.T) {
	// Figure 4: cover {d,e,g} with index edges (d,e), (d,g), (e,g).
	ix := paperHKIndex(t)
	if got := ix.NumIndexEdges(); got != 3 {
		t.Fatalf("index edges = %d, want 3 (Figure 4)", got)
	}
	if ix.Cover().Len() != 3 {
		t.Fatalf("cover = %d, want 3", ix.Cover().Len())
	}
	if ix.H() != 2 || ix.K() != 5 {
		t.Fatalf("H,K = %d,%d", ix.H(), ix.K())
	}
}

func TestPaperExample4Queries(t *testing.T) {
	// All verdicts stated in Example 4 (h = 2, k = 5).
	ix := paperHKIndex(t)
	cases := []struct {
		s, t graph.Vertex
		want bool
		c    core.QueryCase
	}{
		{testgraph.E, testgraph.G, true, core.Case1},  // (e,g) ∈ E_H
		{testgraph.E, testgraph.D, false, core.Case1}, // (e,d) ∉ E_H
		{testgraph.D, testgraph.H, true, core.Case2},  // g ∈ inNei1(h), ω(d,g)=2 ≤ 4
		{testgraph.D, testgraph.A, false, core.Case2}, // a has no in-neighbors
		{testgraph.A, testgraph.G, true, core.Case3},  // d ∈ outNei2(a), ω(d,g)=2 ≤ 3
		{testgraph.A, testgraph.I, true, core.Case4},  // ω(d,g)=2 ≤ 5-2-1
		{testgraph.A, testgraph.J, false, core.Case4}, // ω(d,g)=2 > 5-2-2
	}
	scratch := core.NewHKQueryScratch()
	for _, c := range cases {
		if got := ix.Reach(c.s, c.t, scratch); got != c.want {
			t.Errorf("Reach(%s,%s) = %v, want %v",
				testgraph.VertexName(c.s), testgraph.VertexName(c.t), got, c.want)
		}
		if got := ix.Classify(c.s, c.t); got != c.c {
			t.Errorf("Classify(%s,%s) = %v, want %v",
				testgraph.VertexName(c.s), testgraph.VertexName(c.t), got, c.c)
		}
	}
}

func TestHKValidation(t *testing.T) {
	g := testgraph.Path(6)
	for _, bad := range []core.HKOptions{
		{H: 0, K: 5}, {H: 2, K: 4}, {H: 2, K: 3}, {H: 3, K: 6}, {H: -1, K: 9},
	} {
		if _, err := core.BuildHK(g, bad); err == nil {
			t.Errorf("accepted invalid options %+v", bad)
		}
	}
	// Not an h-hop cover: empty set on a graph with a 2-path.
	if _, err := core.BuildHKWithCover(g, core.HKOptions{H: 2, K: 5},
		cover.NewSet(6, nil)); err == nil {
		t.Error("accepted non-cover")
	}
}

func checkHKOracle(t *testing.T, g *graph.Graph, ix *core.HKIndex, label string) {
	t.Helper()
	oracle := testgraph.NewReachOracle(g)
	scratch := core.NewHKQueryScratch()
	n := g.NumVertices()
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			want := oracle.Reach(graph.Vertex(s), graph.Vertex(tt), ix.K())
			got := ix.Reach(graph.Vertex(s), graph.Vertex(tt), scratch)
			if got != want {
				t.Fatalf("%s: Reach(%d,%d) = %v, want %v (case %v, dist %d)",
					label, s, tt, got, want,
					ix.Classify(graph.Vertex(s), graph.Vertex(tt)),
					oracle.Dist[s][tt])
			}
		}
	}
}

func TestHKOracleEquivalenceRandom(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := 2 + rng.IntN(40)
		g := testgraph.Random(n, rng.IntN(4*n), seed+500)
		for _, hk := range []core.HKOptions{{H: 1, K: 3}, {H: 2, K: 5}, {H: 2, K: 7}, {H: 3, K: 8}} {
			ix, err := core.BuildHK(g, hk)
			if err != nil {
				t.Fatal(err)
			}
			checkHKOracle(t, g, ix, fmt.Sprintf("seed=%d h=%d k=%d", seed, hk.H, hk.K))
		}
	}
}

func TestHKOracleEquivalenceStructured(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":   testgraph.Path(25),
		"cycle":  testgraph.Cycle(12),
		"star":   testgraph.Star(25, true),
		"paper":  testgraph.PaperFigure1(),
		"dag":    testgraph.RandomDAG(25, 70, 8),
		"random": testgraph.Random(30, 90, 77),
	}
	for name, g := range graphs {
		for _, hk := range []core.HKOptions{{H: 2, K: 5}, {H: 2, K: 6}, {H: 3, K: 7}} {
			ix, err := core.BuildHK(g, hk)
			if err != nil {
				t.Fatal(err)
			}
			checkHKOracle(t, g, ix, fmt.Sprintf("%s h=%d k=%d", name, hk.H, hk.K))
		}
	}
}

func TestHKShortPathBelowH(t *testing.T) {
	// Regression test for the paper's Algorithm 3 gap (DESIGN.md §5): a
	// direct edge between two non-cover vertices is a path of length 1 < h
	// that no cover vertex witnesses. The query must still answer true.
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1) // the short path: 0→1, length 1 < h=2
	// A long chain that forces a non-empty 2-hop cover elsewhere.
	for i := 2; i < 7; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	g := b.Build()
	ix, err := core.BuildHK(g, core.HKOptions{H: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Cover().Contains(0) || ix.Cover().Contains(1) {
		t.Skip("cover construction happened to include an endpoint; gap not exercised")
	}
	if !ix.Reach(0, 1, nil) {
		t.Fatal("direct edge between non-cover vertices answered false")
	}
	checkHKOracle(t, g, ix, "short-path")
}

func TestHKSmallerCoverThanVC(t *testing.T) {
	// Corollary 1's practical consequence (Table 9): on hub-heavy graphs the
	// 2-hop cover is clearly smaller than the vertex cover, because leaf
	// edges need no witness (no 2-path ends in two leaves). A caterpillar —
	// a directed spine with leaf fans — is the minimal such structure.
	b := graph.NewBuilder(31 * 6)
	for i := 0; i < 30; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1)) // spine
	}
	for i := 0; i <= 30; i++ {
		for l := 0; l < 5; l++ {
			b.AddEdge(graph.Vertex(i), graph.Vertex(31+i*5+l)) // leaves
		}
	}
	g := b.Build()
	vc := cover.VertexCover(g, cover.RandomEdge, 1)
	hc := cover.HHopCover(g, 2)
	if hc.Len() >= vc.Len() {
		t.Errorf("2-hop cover %d not smaller than vertex cover %d on caterpillar",
			hc.Len(), vc.Len())
	}
	ix, err := core.BuildHKWithCover(g, core.HKOptions{H: 2, K: 5}, hc)
	if err != nil {
		t.Fatal(err)
	}
	checkHKOracle(t, g, ix, "caterpillar")
}

func TestHKSelfQuery(t *testing.T) {
	ix := paperHKIndex(t)
	for v := graph.Vertex(0); v < 10; v++ {
		if !ix.Reach(v, v, nil) {
			t.Errorf("Reach(%v,%v) false", v, v)
		}
	}
}

func TestHKParallelMatchesSequential(t *testing.T) {
	g := testgraph.Random(60, 220, 31)
	a, err := core.BuildHK(g, core.HKOptions{H: 2, K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BuildHK(g, core.HKOptions{H: 2, K: 6, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumIndexEdges() != b.NumIndexEdges() || a.SizeBytes() != b.SizeBytes() {
		t.Fatalf("parallel HK build differs: %d vs %d edges",
			a.NumIndexEdges(), b.NumIndexEdges())
	}
}
