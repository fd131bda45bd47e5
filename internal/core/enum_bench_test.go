package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// BenchmarkEnumerate is the local reproduction of core.enum_ns_per_vertex:
// ns per ball vertex over whole k-hop balls, both directions, from sampled
// cover sources (cover-source: the index-row walk) and non-cover sources
// (fallback: the graph.BFS ball). Two shapes: the benchmark's 300 k-vertex
// lattice at k = 4 with the random-edge cover, and the hub-heavy Human
// stand-in at k = 3 with the degree-prioritised cover. One op enumerates
// every sampled source, so -benchtime=1x still reads a whole sample.
func BenchmarkEnumerate(b *testing.B) {
	const sample = 256
	human, _ := gen.Dataset("Human")
	shapes := []struct {
		name  string
		g     *graph.Graph
		k     int
		strat cover.Strategy
	}{
		{"lattice", testgraph.Lattice(300_000, 1), 4, cover.RandomEdge},
		{"hubs", human.Generate(), 3, cover.DegreePrioritized},
	}
	for _, sh := range shapes {
		ix, err := Build(sh.g, Options{K: sh.k, Strategy: sh.strat, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var inCover, outside []graph.Vertex
		for _, v := range rand.New(rand.NewPCG(1, 0xba11)).Perm(sh.g.NumVertices()) {
			if ix.InCover(graph.Vertex(v)) {
				if len(inCover) < sample {
					inCover = append(inCover, graph.Vertex(v))
				}
			} else if len(outside) < sample {
				outside = append(outside, graph.Vertex(v))
			}
		}
		for _, path := range []struct {
			name string
			srcs []graph.Vertex
		}{{"cover-source", inCover}, {"fallback", outside}} {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				sc := NewEnumScratch()
				vertices := 0
				for i := 0; i < b.N; i++ {
					for _, src := range path.srcs {
						for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
							_, total, err := ix.Enumerate(context.Background(), src, EnumOptions{Direction: dir}, sc)
							if err != nil {
								b.Fatal(err)
							}
							vertices += total
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(vertices, 1)), "ns/vertex")
			})
		}
	}
}
