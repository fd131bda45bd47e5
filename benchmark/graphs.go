package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"kreach"
)

// edge is one directed edge of a generated graph. The benchmark keeps its
// own edge lists so the oracle never reads the product's graph structures.
type edge struct{ u, v int32 }

// edgeList is a generated graph: n vertices and its edges sorted by (u, v),
// without duplicates or self-loops.
type edgeList struct {
	n     int
	edges []edge
}

// toGraph hands the edges to the product through its public builder, the
// way a user loading an edge list would.
func (el edgeList) toGraph() *kreach.Graph {
	b := kreach.NewBuilder(el.n)
	for _, e := range el.edges {
		b.AddEdge(int(e.u), int(e.v))
	}
	return b.Build()
}

// wattsStrogatz generates the directed small-world lattice of Watts and
// Strogatz as reviewed by Newman ("Models of the Small World"): a ring in
// which every vertex points at its halfDeg nearest neighbours on each side,
// after which each edge's head is rewired to a uniform random vertex with
// probability p. Out-degree is exactly 2*halfDeg; the rewired heads are the
// shortcuts that collapse the mean path length while the untouched ring
// keeps the clustering high.
func wattsStrogatz(n, halfDeg int, p float64, seed uint64) edgeList {
	rng := rand.New(rand.NewPCG(seed, 0x77a7751))
	deg := 2 * halfDeg
	edges := make([]edge, 0, n*deg)
	heads := make([]int32, 0, deg)
	has := func(v int32) bool {
		for _, h := range heads {
			if h == v {
				return true
			}
		}
		return false
	}
	for u := 0; u < n; u++ {
		heads = heads[:0]
		for d := 1; d <= halfDeg; d++ {
			heads = append(heads, int32((u+d)%n), int32((u-d+n)%n))
		}
		for i := range heads {
			if rng.Float64() >= p {
				continue
			}
			for {
				w := int32(rng.IntN(n))
				if int(w) != u && !has(w) {
					heads[i] = w
					break
				}
			}
		}
		sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
		for _, h := range heads {
			edges = append(edges, edge{int32(u), h})
		}
	}
	return edgeList{n: n, edges: edges}
}

// powerLawHubs generates a "celebrity" follow graph in the sense of the
// small-world survey's scale-free class. A seeded permutation picks celebs
// of the n vertices as celebrities, ranked; every other vertex is ordinary
// and follows `follows` distinct celebrities, each drawn from the rank
// distribution P(rank r) ∝ (r+1)^-zipf, so in-degrees have a power-law tail
// and a few hubs collect a large share of all edges. Celebrities follow
// follows-1 other celebrities the same way. Every tenth ordinary vertex
// also has a reciprocal friendship with an ordinary vertex at most
// friendSpan places away, which gives ordinary vertices the local
// clustering real follow graphs have. Out-degrees are fixed by
// construction: the index over such a graph is dominated by what the top
// few celebrities can reach, and leaving their out-degree to chance would
// move its size by a fifth from one seed to the next.
func powerLawHubs(n, celebs, follows int, zipf float64, seed uint64) edgeList {
	rng := rand.New(rand.NewPCG(seed, 0xce1eb))
	celebs = min(max(celebs, follows+1), n)
	cum := make([]float64, celebs)
	total := 0.0
	for r := range cum {
		total += math.Pow(float64(r+1), -zipf)
		cum[r] = total
	}
	order := rng.Perm(n) // order[:celebs] are the celebrities by rank, the rest ordinary
	adj := make([][]int32, n)
	has := func(u int, v int32) bool {
		for _, h := range adj[u] {
			if h == v {
				return true
			}
		}
		return false
	}
	for i, u := range order {
		want := follows
		if i < celebs {
			want = follows - 1
		}
		for len(adj[u]) < want {
			v := int32(order[sort.SearchFloat64s(cum, rng.Float64()*total)])
			if int(v) != u && !has(u, v) {
				adj[u] = append(adj[u], v)
			}
		}
	}
	const friendSpan = 16
	ordinary := order[celebs:]
	for i := 0; i+friendSpan < len(ordinary); i += 10 {
		u, v := ordinary[i], ordinary[i+1+rng.IntN(friendSpan)]
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	edges := make([]edge, 0, n*(follows+1))
	for u, heads := range adj {
		sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
		for i, h := range heads {
			if i == 0 || h != heads[i-1] {
				edges = append(edges, edge{int32(u), h})
			}
		}
	}
	return edgeList{n: n, edges: edges}
}
