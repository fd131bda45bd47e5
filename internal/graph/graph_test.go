package graph_test

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kreach/internal/graph"
)

func buildSmall(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(3, 4)
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := buildSmall(t)
	if got := g.NumVertices(); got != 5 {
		t.Fatalf("NumVertices = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 6 {
		t.Fatalf("NumEdges = %d, want 6", got)
	}
	wantOut := map[graph.Vertex][]graph.Vertex{
		0: {1, 2}, 1: {2}, 2: {3}, 3: {0, 4}, 4: {},
	}
	for v, want := range wantOut {
		got := g.OutNeighbors(v)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]graph.Vertex{}, got...), want) {
			t.Errorf("OutNeighbors(%d) = %v, want %v", v, got, want)
		}
	}
	wantIn := map[graph.Vertex][]graph.Vertex{
		0: {3}, 1: {0}, 2: {0, 1}, 3: {2}, 4: {3},
	}
	for v, want := range wantIn {
		got := g.InNeighbors(v)
		if !reflect.DeepEqual(append([]graph.Vertex{}, got...), want) {
			t.Errorf("InNeighbors(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := graph.NewBuilder(3)
	for i := 0; i < 4; i++ {
		b.AddEdge(0, 1)
	}
	b.AddEdge(1, 2)
	g := b.Build()
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", got)
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	graph.NewBuilder(2).AddEdge(0, 5)
}

func TestBuildEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	g2 := graph.NewBuilder(7).Build()
	if g2.NumVertices() != 7 || g2.NumEdges() != 0 {
		t.Fatalf("edgeless graph: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
	for v := 0; v < 7; v++ {
		if len(g2.OutNeighbors(graph.Vertex(v))) != 0 {
			t.Errorf("vertex %d should have no neighbors", v)
		}
	}
}

func TestSelfLoopAllowed(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if !g.HasEdge(0, 0) {
		t.Error("self loop lost")
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees with self loop: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
}

func TestDegreeIsUnionSize(t *testing.T) {
	// Vertex 0: out {1,2}, in {3}; union size 3.
	g := buildSmall(t)
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3", got)
	}
	// Bidirectional edge counts once.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g2 := b.Build()
	if got := g2.Degree(0); got != 1 {
		t.Errorf("Degree with reciprocal edge = %d, want 1", got)
	}
}

func TestHasEdge(t *testing.T) {
	g := buildSmall(t)
	cases := []struct {
		u, v graph.Vertex
		want bool
	}{
		{0, 1, true}, {1, 0, false}, {3, 4, true}, {4, 3, false}, {0, 4, false}, {3, 0, true},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestReverse(t *testing.T) {
	g := buildSmall(t)
	r := g.Reverse()
	g.ForEachEdge(func(u, v graph.Vertex) {
		if !r.HasEdge(v, u) {
			t.Errorf("reverse missing edge (%d,%d)", v, u)
		}
	})
	if r.NumEdges() != g.NumEdges() {
		t.Errorf("reverse edge count %d != %d", r.NumEdges(), g.NumEdges())
	}
}

func TestEdgesSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(50)
		b := graph.NewBuilder(n)
		m := rng.IntN(200)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		for v := 0; v < n; v++ {
			out := g.OutNeighbors(graph.Vertex(v))
			if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
				t.Fatalf("out adjacency of %d not sorted: %v", v, out)
			}
			in := g.InNeighbors(graph.Vertex(v))
			if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
				t.Fatalf("in adjacency of %d not sorted: %v", v, in)
			}
		}
	}
}

func TestInOutDegreeSumsMatch(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + rng.IntN(40)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(150); i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		sumOut, sumIn := 0, 0
		for v := 0; v < n; v++ {
			sumOut += g.OutDegree(graph.Vertex(v))
			sumIn += g.InDegree(graph.Vertex(v))
		}
		return sumOut == g.NumEdges() && sumIn == g.NumEdges()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSubgraph(t *testing.T) {
	g := buildSmall(t)
	sub, ids := g.Subgraph([]graph.Vertex{0, 2, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("subgraph n = %d, want 3", sub.NumVertices())
	}
	if !reflect.DeepEqual(ids, []graph.Vertex{0, 2, 3}) {
		t.Fatalf("ids = %v", ids)
	}
	// Surviving edges: 0→2 (0→2 orig), 2→3 and 3→0 map to (1→2, 2→0).
	want := []graph.Edge{{0, 1}, {1, 2}, {2, 0}}
	if !reflect.DeepEqual(sub.Edges(), want) {
		t.Fatalf("subgraph edges = %v, want %v", sub.Edges(), want)
	}
}

func TestSubgraphDuplicateKeep(t *testing.T) {
	g := buildSmall(t)
	sub, ids := g.Subgraph([]graph.Vertex{3, 0, 3, 0})
	if sub.NumVertices() != 2 || len(ids) != 2 {
		t.Fatalf("dedup failed: n=%d ids=%v", sub.NumVertices(), ids)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildSmall(t)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) || g.NumVertices() != g2.NumVertices() {
		t.Fatalf("round trip mismatch: %v vs %v", g.Edges(), g2.Edges())
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	if _, err := graph.ReadEdgeList(bytes.NewBufferString("1 2 3\n")); err == nil {
		t.Error("expected error for 3-field line")
	}
	if _, err := graph.ReadEdgeList(bytes.NewBufferString("x y\n")); err == nil {
		t.Error("expected error for non-numeric line")
	}
	// A first pair whose id range is exceeded later is not a header: it is
	// reparsed as an edge (see io_test.go for the full detection matrix).
	g, err := graph.ReadEdgeList(bytes.NewBufferString("2 1\n0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 2 || !g.HasEdge(2, 1) {
		t.Fatalf("got n=%d m=%d, want the edges (2,1) and (0,5)", g.NumVertices(), g.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		rng := rand.New(rand.NewPCG(seed, 0))
		n := 1 + rng.IntN(100)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(400); i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := graph.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) || g.NumVertices() != g2.NumVertices() {
			t.Fatalf("seed %d: binary round trip mismatch", seed)
		}
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	g := buildSmall(t)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF
	if _, err := graph.ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("expected checksum error for corrupted payload")
	}
	if _, err := graph.ReadBinary(bytes.NewReader([]byte("XXXX12345678"))); err == nil {
		t.Error("expected magic error for foreign stream")
	}
}

func TestBFSDistancesPath(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	g := b.Build()
	d := graph.BFSDistances(g, 0, graph.Forward)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	back := graph.BFSDistances(g, 4, graph.Backward)
	for i, want := range []int32{4, 3, 2, 1, 0} {
		if back[i] != want {
			t.Errorf("backward dist[%d] = %d, want %d", i, back[i], want)
		}
	}
	if d2 := graph.BFSDistances(g, 4, graph.Forward); d2[0] != graph.InfDist {
		t.Errorf("unreachable distance = %d, want InfDist", d2[0])
	}
}

func TestKHopBFSBound(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	g := b.Build()
	scratch := graph.NewBFSScratch(6)
	graph.KHopBFS(g, 0, 2, graph.Forward, scratch)
	if got := scratch.Dist(2); got != 2 {
		t.Errorf("dist within bound = %d, want 2", got)
	}
	if got := scratch.Dist(3); got != graph.InfDist {
		t.Errorf("vertex beyond bound visible: dist = %d", got)
	}
	if got := len(scratch.Visited()); got != 3 {
		t.Errorf("visited %d vertices, want 3", got)
	}
	// Zero hops: only the source.
	graph.KHopBFS(g, 1, 0, graph.Forward, scratch)
	if len(scratch.Visited()) != 1 || scratch.Dist(1) != 0 {
		t.Errorf("0-hop BFS visited %v", scratch.Visited())
	}
}

func TestKHopReachAgainstDistances(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.IntN(30)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.IntN(3*n); i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		scratch := graph.NewBFSScratch(n)
		for s := 0; s < n; s++ {
			dist := graph.BFSDistances(g, graph.Vertex(s), graph.Forward)
			for tt := 0; tt < n; tt++ {
				for _, k := range []int{0, 1, 2, 3, n, -1} {
					want := dist[tt] != graph.InfDist && (k < 0 || int(dist[tt]) <= k)
					got := graph.KHopReach(g, graph.Vertex(s), graph.Vertex(tt), k, scratch)
					if got != want {
						t.Fatalf("KHopReach(%d,%d,k=%d) = %v, want %v (dist %d)",
							s, tt, k, got, want, dist[tt])
					}
				}
			}
		}
	}
}

func TestShortestDistMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	n := 40
	b := graph.NewBuilder(n)
	for i := 0; i < 120; i++ {
		b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
	}
	g := b.Build()
	scratch := graph.NewBFSScratch(n)
	for s := 0; s < n; s++ {
		dist := graph.BFSDistances(g, graph.Vertex(s), graph.Forward)
		for tt := 0; tt < n; tt++ {
			if got := graph.ShortestDist(g, graph.Vertex(s), graph.Vertex(tt), scratch); got != dist[tt] {
				t.Fatalf("ShortestDist(%d,%d) = %d, want %d", s, tt, got, dist[tt])
			}
		}
	}
}

func TestScratchEpochReuse(t *testing.T) {
	// Repeated traversals over the same scratch must not leak state.
	g := buildSmall(t)
	scratch := graph.NewBFSScratch(g.NumVertices())
	graph.KHopBFS(g, 0, -1, graph.Forward, scratch)
	first := append([]graph.Vertex{}, scratch.Visited()...)
	graph.KHopBFS(g, 4, -1, graph.Forward, scratch)
	if len(scratch.Visited()) != 1 {
		t.Fatalf("second traversal leaked state: visited %v", scratch.Visited())
	}
	if scratch.Dist(0) != graph.InfDist {
		t.Fatalf("stale distance visible after epoch bump")
	}
	graph.KHopBFS(g, 0, -1, graph.Forward, scratch)
	if !reflect.DeepEqual(first, scratch.Visited()) {
		t.Fatalf("traversal not reproducible: %v vs %v", first, scratch.Visited())
	}
}

func TestComputeStatsOnPath(t *testing.T) {
	n := 10
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
	}
	g := b.Build()
	rng := rand.New(rand.NewPCG(1, 1))
	st := graph.ComputeStats(g, n, rng) // exhaustive
	if st.N != n || st.M != n-1 {
		t.Fatalf("stats counts: %+v", st)
	}
	if st.Diameter != n-1 {
		t.Errorf("diameter = %d, want %d", st.Diameter, n-1)
	}
	if st.MaxDegree != 2 {
		t.Errorf("max degree = %d, want 2", st.MaxDegree)
	}
	if st.MedianPath < 1 || st.MedianPath > n-1 {
		t.Errorf("median path = %d out of range", st.MedianPath)
	}
}

func TestComputeStatsSampled(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	b := graph.NewBuilder(200)
	for i := 0; i < 600; i++ {
		b.AddEdge(graph.Vertex(rng.IntN(200)), graph.Vertex(rng.IntN(200)))
	}
	g := b.Build()
	st := graph.ComputeStats(g, 32, rng)
	if st.Diameter <= 0 {
		t.Errorf("sampled diameter = %d, want > 0", st.Diameter)
	}
	if st.Reachable <= 0 || st.Reachable > 1 {
		t.Errorf("reachable fraction = %v out of (0,1]", st.Reachable)
	}
}

// checkCSR asserts the structural contract every graph constructor owes its
// callers: degrees sum to |E| in both directions, heads are in range, rows
// are strictly ascending (sorted and duplicate-free), the in-adjacency is
// the exact transpose of the out-adjacency, and the edge set is want.
func checkCSR(t *testing.T, label string, g *graph.Graph, want map[graph.Edge]bool) {
	t.Helper()
	n := g.NumVertices()
	rows := func(dir string, nbrs func(graph.Vertex) []graph.Vertex, deg func(graph.Vertex) int) map[graph.Edge]bool {
		seen := map[graph.Edge]bool{}
		sum := 0
		for v := 0; v < n; v++ {
			row := nbrs(graph.Vertex(v))
			if len(row) != deg(graph.Vertex(v)) {
				t.Fatalf("%s: %s-degree of %d is %d, row has %d", label, dir, v, deg(graph.Vertex(v)), len(row))
			}
			sum += len(row)
			for i, w := range row {
				if w < 0 || int(w) >= n {
					t.Fatalf("%s: %s-row of %d holds %d, outside [0,%d)", label, dir, v, w, n)
				}
				if i > 0 && row[i-1] >= w {
					t.Fatalf("%s: %s-row of %d not strictly ascending: %v", label, dir, v, row)
				}
				e := graph.Edge{Src: graph.Vertex(v), Dst: w}
				if dir == "in" {
					e = graph.Edge{Src: w, Dst: graph.Vertex(v)}
				}
				seen[e] = true
			}
		}
		if sum != g.NumEdges() {
			t.Fatalf("%s: %s-degrees sum to %d, |E| = %d", label, dir, sum, g.NumEdges())
		}
		return seen
	}
	out := rows("out", g.OutNeighbors, g.OutDegree)
	in := rows("in", g.InNeighbors, g.InDegree)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("%s: in-adjacency is not the transpose of the out-adjacency", label)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("%s: edge set %v, want %v", label, out, want)
	}
}

// TestBuildCSRInvariants drives Build, Subgraph and Rebuild with inputs that
// lean on the sort-and-deduplicate step: far more edges than distinct pairs,
// self-loops, no edges, no vertices.
func TestBuildCSRInvariants(t *testing.T) {
	checkCSR(t, "no vertices", graph.NewBuilder(0).Build(), map[graph.Edge]bool{})
	checkCSR(t, "no edges", graph.NewBuilder(7).Build(), map[graph.Edge]bool{})
	rng := rand.New(rand.NewPCG(7, 0xc52))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(12)
		randomEdges := func(m int) []graph.Edge {
			es := make([]graph.Edge, m)
			for i := range es {
				es[i] = graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
				if rng.IntN(4) == 0 {
					es[i].Dst = es[i].Src
				}
			}
			return es
		}
		input := randomEdges(rng.IntN(20 * n))
		want := map[graph.Edge]bool{}
		b := graph.NewBuilder(n)
		for _, e := range input {
			b.AddEdge(e.Src, e.Dst)
			want[e] = true
		}
		g := b.Build()
		checkCSR(t, "build", g, want)

		add, remove := randomEdges(rng.IntN(3*n)), randomEdges(rng.IntN(3*n))
		for _, e := range remove {
			delete(want, e)
		}
		for _, e := range add {
			want[e] = true
		}
		checkCSR(t, "rebuild", graph.Rebuild(g, add, remove), want)

		keep := make([]graph.Vertex, rng.IntN(2*n))
		for i := range keep {
			keep[i] = graph.Vertex(rng.IntN(n))
		}
		sub, ids := g.Subgraph(keep)
		newID := map[graph.Vertex]graph.Vertex{}
		for i, v := range ids {
			newID[v] = graph.Vertex(i)
		}
		induced := map[graph.Edge]bool{}
		g.ForEachEdge(func(u, v graph.Vertex) {
			nu, okU := newID[u]
			nv, okV := newID[v]
			if okU && okV {
				induced[graph.Edge{Src: nu, Dst: nv}] = true
			}
		})
		checkCSR(t, "subgraph", sub, induced)
	}
}
