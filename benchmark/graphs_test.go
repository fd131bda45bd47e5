package main

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"
)

func savedBytes(t *testing.T, el edgeList) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := el.toGraph().SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The same seed must give the same graph to the byte; another seed must
// not.
func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) edgeList{
		"lattice": func(seed uint64) edgeList { return wattsStrogatz(5000, 2, 0.05, seed) },
		"hubs":    func(seed uint64) edgeList { return powerLawHubs(5000, 80, 4, 1.0, seed) },
	}
	for name, gen := range gens {
		a, b, c := savedBytes(t, gen(7)), savedBytes(t, gen(7)), savedBytes(t, gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same graph", name)
		}
	}
}

// checkEdgeList asserts what every consumer of an edgeList assumes.
func checkEdgeList(t *testing.T, el edgeList) {
	t.Helper()
	for i, e := range el.edges {
		if e.u < 0 || int(e.u) >= el.n || e.v < 0 || int(e.v) >= el.n {
			t.Fatalf("edge %d (%d,%d) out of range [0,%d)", i, e.u, e.v, el.n)
		}
		if e.u == e.v {
			t.Fatalf("edge %d is a self-loop at %d", i, e.u)
		}
		if i > 0 {
			p := el.edges[i-1]
			if p.u > e.u || (p.u == e.u && p.v >= e.v) {
				t.Fatalf("edges %d and %d out of order or duplicate: (%d,%d) (%d,%d)", i-1, i, p.u, p.v, e.u, e.v)
			}
		}
	}
}

// checkCSR asserts the invariants of one direction of the oracle's
// adjacency: offsets monotone from 0 to |E|, heads in range, rows sorted.
func checkCSR(t *testing.T, n, m int, head, adj []int32) {
	t.Helper()
	if len(head) != n+1 || head[0] != 0 || int(head[n]) != m || len(adj) != m {
		t.Fatalf("CSR shape: %d offsets, first %d, last %d, %d heads; want %d, 0, %d, %d", len(head), head[0], head[n], len(adj), n+1, m, m)
	}
	for v := 0; v < n; v++ {
		if head[v] > head[v+1] {
			t.Fatalf("offsets decrease at vertex %d", v)
		}
		row := adj[head[v]:head[v+1]]
		for i, w := range row {
			if w < 0 || int(w) >= n {
				t.Fatalf("vertex %d: head %d out of range", v, w)
			}
			if i > 0 && row[i-1] >= w {
				t.Fatalf("vertex %d: row not strictly ascending", v)
			}
		}
	}
}

func TestGeneratedGraphsAreWellFormed(t *testing.T) {
	for name, el := range map[string]edgeList{
		"lattice": wattsStrogatz(5000, 2, 0.05, 3),
		"hubs":    powerLawHubs(5000, 80, 4, 1.0, 3),
	} {
		t.Run(name, func(t *testing.T) {
			checkEdgeList(t, el)
			o := newOracle(el, liveBatches)
			checkCSR(t, el.n, len(el.edges), o.outHead, o.outAdj)
			checkCSR(t, el.n, len(el.edges), o.inHead, o.inAdj)
			if g := el.toGraph(); g.NumVertices() != el.n || g.NumEdges() != len(el.edges) {
				t.Errorf("product sees |V|=%d |E|=%d, generated %d and %d", g.NumVertices(), g.NumEdges(), el.n, len(el.edges))
			}
		})
	}
}

// clustering is the mean local clustering coefficient over a vertex
// sample, on the undirected projection: of the pairs of a vertex's
// neighbours, the share that are themselves adjacent.
func clustering(o *oracle, sample []int32) float64 {
	neighbours := func(v int32) []int32 {
		seen := map[int32]bool{}
		for _, w := range o.outAdj[o.outHead[v]:o.outHead[v+1]] {
			seen[w] = true
		}
		for _, w := range o.inAdj[o.inHead[v]:o.inHead[v+1]] {
			seen[w] = true
		}
		out := make([]int32, 0, len(seen))
		for w := range seen {
			out = append(out, w)
		}
		return out
	}
	sum, counted := 0.0, 0
	for _, v := range sample {
		nb := neighbours(v)
		if len(nb) < 2 {
			continue
		}
		linked := 0
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				if o.hasBaseEdge(a, b) || o.hasBaseEdge(b, a) {
					linked++
				}
			}
		}
		sum += float64(linked) / float64(len(nb)*(len(nb)-1)/2)
		counted++
	}
	return sum / float64(counted)
}

// meanPath is the mean directed distance from sampled sources to every
// vertex they reach.
func meanPath(o *oracle, sample []int32) float64 {
	var sum, reached float64
	for _, s := range sample {
		o.bfs(s, o.n, 0, true, -1)
		for _, v := range o.queue[1:] {
			sum += float64(o.dist[v])
			reached++
		}
	}
	return sum / reached
}

func sampleVertices(n, count int, seed uint64) []int32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(rng.IntN(n))
	}
	return out
}

// The lattice workloads rely on the small-world regime: a few per cent of
// rewired edges collapse the mean path length (a ring of 4000 vertices
// with reach 2 has mean distance near 500) while the clustering of the
// ring (0.5 at degree 4) largely survives. A random graph of the same
// density would have clustering near 4/n.
func TestLatticeIsASmallWorld(t *testing.T) {
	const n = 4000
	sample := sampleVertices(n, 200, 5)
	ring := newOracle(wattsStrogatz(n, 2, 0, 5), liveBatches)
	small := newOracle(wattsStrogatz(n, 2, 0.05, 5), liveBatches)
	for v := 0; v < n; v++ {
		if d := small.outHead[v+1] - small.outHead[v]; d != 4 {
			t.Fatalf("vertex %d has out-degree %d, want exactly 4", v, d)
		}
	}
	if c := clustering(ring, sample); c < 0.45 || c > 0.55 {
		t.Errorf("unrewired ring clustering %.3f, want 0.5", c)
	}
	if c := clustering(small, sample); c < 0.3 {
		t.Errorf("lattice clustering %.3f, want most of the ring's 0.5 to survive p=0.05", c)
	}
	ringPath, smallPath := meanPath(ring, sample[:20]), meanPath(small, sample[:20])
	if ringPath < 400 {
		t.Errorf("unrewired ring mean path %.1f, want about n/8 = 500", ringPath)
	}
	if smallPath > ringPath/10 {
		t.Errorf("lattice mean path %.1f against the ring's %.1f: shortcuts should cut it tenfold", smallPath, ringPath)
	}
}

// The hub workloads rely on a heavy in-degree tail (a handful of vertices
// collect a large share of all edges), on celebrity ids being scattered,
// and on every vertex's out-degree being small and fixed.
func TestHubsHaveAPowerLawTail(t *testing.T) {
	const n, celebs = 20000, 20000 / 64
	el := powerLawHubs(n, celebs, 4, 1.0, 9)
	o := newOracle(el, liveBatches)
	in := make([]int, n)
	for v := range in {
		in[v] = int(o.inHead[v+1] - o.inHead[v])
		if out := o.outHead[v+1] - o.outHead[v]; out < 3 || out > 6 {
			t.Fatalf("vertex %d has out-degree %d, want 3 or 4 follows plus at most 2 friends", v, out)
		}
	}
	byDegree := append([]int(nil), in...)
	sort.Sort(sort.Reverse(sort.IntSlice(byDegree)))
	mean := float64(len(el.edges)) / n
	if float64(byDegree[0]) < 200*mean {
		t.Errorf("largest in-degree %d is under 200× the mean %.1f", byDegree[0], mean)
	}
	top := 0
	for _, d := range byDegree[:n/100] {
		top += d
	}
	if share := float64(top) / float64(len(el.edges)); share < 0.7 {
		t.Errorf("top 1%% of vertices hold %.0f%% of in-edges, want a heavy tail (≥70%%)", 100*share)
	}
	// Zipf with exponent 1: in-degree falls off as 1/rank, so rank 10 has
	// about a tenth of rank 1 and rank 100 about a hundredth.
	if r := float64(byDegree[0]) / float64(byDegree[9]); r < 5 || r > 20 {
		t.Errorf("in-degree of rank 1 is %.1f× that of rank 10, want about 10×", r)
	}
	if r := float64(byDegree[0]) / float64(byDegree[99]); r < 50 || r > 200 {
		t.Errorf("in-degree of rank 1 is %.1f× that of rank 100, want about 100×", r)
	}
	// Scattered: the ten biggest celebrities are not all in one tenth of
	// the id space.
	tenth := map[int32]bool{}
	for _, c := range topDegree(o, 10) {
		tenth[c/(n/10)] = true
	}
	if len(tenth) < 3 {
		t.Errorf("the ten biggest celebrities sit in %d tenths of the id space", len(tenth))
	}
}
