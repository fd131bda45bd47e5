package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// BenchmarkBuild splits index construction into the stages the benchmark
// ledger reports — cover.select_s (cover/*), core.build_rows_s (rows, then
// finalize) and core.index_load_s (load) — on 100 k-vertex versions of the
// ledger's two graph shapes, so a change to one stage has a local
// reproduction that runs in about a second at -benchtime=1x.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name  string
		g     *graph.Graph
		k     int
		strat cover.Strategy
	}{
		{"hubs", benchHubs(100_000), 3, cover.DegreePrioritized},
		{"lattice", testgraph.Lattice(100_000, 1), 4, cover.RandomEdge},
	}
	for _, sh := range shapes {
		g := sh.g
		opts := Options{K: sh.k, Strategy: sh.strat, Seed: 1}
		ix, err := Build(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		var saved bytes.Buffer
		if err := ix.WriteBinary(&saved); err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name+"/cover/degree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cover.VertexCover(g, cover.DegreePrioritized, 1)
			}
		})
		b.Run(sh.name+"/cover/random", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cover.VertexCover(g, cover.RandomEdge, 1)
			}
		})
		b.Run(sh.name+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildRows(g, ix.coverSet.List(), ix.coverID, ix.k, opts.workers(), ix.bucketFor)
			}
			b.ReportMetric(float64(ix.NumIndexEdges()), "arcs")
		})
		b.Run(sh.name+"/finalize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.finalize(opts.workers())
			}
		})
		b.Run(sh.name+"/load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReadBinaryIndex(bytes.NewReader(saved.Bytes()), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchHubs is a celebrity follow graph: vertices below n/64 are
// celebrities, every vertex follows four of them drawn by Zipf rank, and
// every tenth ordinary vertex has a reciprocal friendship nearby.
func benchHubs(n int) *graph.Graph {
	rng := rand.New(rand.NewPCG(1, 0xce1eb))
	celebs := n / 64
	cum := make([]float64, celebs)
	total := 0.0
	for r := range cum {
		total += math.Pow(float64(r+1), -1)
		cum[r] = total
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for f := 0; f < 4; f++ {
			b.AddEdge(graph.Vertex(u), graph.Vertex(sort.SearchFloat64s(cum, rng.Float64()*total)))
		}
	}
	for u := celebs; u+16 < n; u += 10 {
		v := u + 1 + rng.IntN(16)
		b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		b.AddEdge(graph.Vertex(v), graph.Vertex(u))
	}
	return b.Build()
}
