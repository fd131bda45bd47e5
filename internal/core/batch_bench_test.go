package core_test

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// BenchmarkReachBatch is the local reproduction of the in-process batch
// rows of the benchmark: a 300 k-vertex lattice at k = 4 over a random-edge
// cover, whose index overflows L2, queried with the benchmark's pair mix
// (every second target the end of a 1..k+1-step walk from its source, the
// rest uniform). reach-loop answers the pairs with scalar Reach one after
// another; batch/p=1 and batch/p=max run ReachBatch on one worker and on
// GOMAXPROCS. The dynamic/ rungs answer the same pairs with a mutable index
// over the same graph and cover (dynamic.New, no mutations yet), whose rows
// are per-row slices of packed arcs instead of the CSR, through the same
// two kernels. dynamic/batch/p=1/mutated runs the one-worker batch again
// after the index has taken the benchmark's write traffic: a live window
// of liveBatches batches of 32 added edges, filled, then slid for
// liveBatches more batches that also remove the window's oldest 32. Its
// rows have been relaxed out of the build slab, its overlay carries dirty
// lists and its cover has grown by promotion. Each reports ns/pair.
func BenchmarkReachBatch(b *testing.B) {
	const k = 4
	g := testgraph.Lattice(300_000, 1)
	ix, err := core.Build(g, core.Options{K: k, Strategy: cover.RandomEdge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchPairs(g, k, 1<<18, 7)
	perPair := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
	}
	b.Run("reach-loop", func(b *testing.B) {
		sc := core.NewQueryScratch()
		out := make([]bool, len(pairs))
		for b.Loop() {
			for i, p := range pairs {
				out[i] = ix.Reach(p.S, p.T, sc)
			}
		}
		perPair(b)
	})
	for _, w := range []struct {
		name string
		par  int
	}{{"batch/p=1", 1}, {"batch/p=max", runtime.GOMAXPROCS(0)}} {
		b.Run(w.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := ix.ReachBatch(context.Background(), pairs, w.par); err != nil {
					b.Fatal(err)
				}
			}
			perPair(b)
		})
	}

	dyn, err := dynamic.New(g, dynamic.Options{K: k, Strategy: cover.RandomEdge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dynamic/reach-loop", func(b *testing.B) {
		sc := core.NewQueryScratch()
		out := make([]bool, len(pairs))
		for b.Loop() {
			for i, p := range pairs {
				out[i] = dyn.Reach(p.S, p.T, sc)
			}
		}
		perPair(b)
	})
	dynBatch := func(b *testing.B) {
		for b.Loop() {
			if _, _, err := dyn.ReachBatch(context.Background(), pairs, 1); err != nil {
				b.Fatal(err)
			}
		}
		perPair(b)
	}
	b.Run("dynamic/batch/p=1", dynBatch)
	slideWindow(b, dyn, g, 32, liveBatches, 8)
	b.Run("dynamic/batch/p=1/mutated", dynBatch)
}

// liveBatches is the benchmark's live window: how many mutation batches'
// edges are live at once before the oldest batch is removed.
const liveBatches = 64

// slideWindow applies the benchmark's write traffic to dyn: window batches
// of adds new uniform edges each, then window more that each also remove
// the oldest live batch.
func slideWindow(b *testing.B, dyn *dynamic.Index, g *graph.Graph, adds, window int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x3d17a7e))
	n := g.NumVertices()
	live := map[graph.Edge]bool{}
	var recent [][]graph.Edge
	for range 2 * window {
		var add, remove []graph.Edge
		for len(add) < adds {
			e := graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
			if e.Src == e.Dst || live[e] || g.HasEdge(e.Src, e.Dst) {
				continue
			}
			live[e] = true
			add = append(add, e)
		}
		if len(recent) == window {
			remove, recent = recent[0], recent[1:]
			for _, e := range remove {
				delete(live, e)
			}
		}
		recent = append(recent, add)
		if _, err := dyn.Mutate(add, remove); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPairs draws the benchmark's pair mix on g.
func benchPairs(g *graph.Graph, k, count int, seed uint64) []core.Pair {
	rng := rand.New(rand.NewPCG(seed, 0xba7c4))
	n := g.NumVertices()
	pairs := make([]core.Pair, count)
	for i := range pairs {
		s := graph.Vertex(rng.IntN(n))
		t := graph.Vertex(rng.IntN(n))
		if i%2 == 1 {
			t = s
			for steps := 1 + rng.IntN(k+1); steps > 0; steps-- {
				row := g.OutNeighbors(t)
				if len(row) == 0 {
					break
				}
				t = row[rng.IntN(len(row))]
			}
		}
		pairs[i] = core.Pair{S: s, T: t}
	}
	return pairs
}
