package dynamic

import (
	"slices"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// BenchmarkMutate is the local reproduction of dynamic.mutate_us_per_edge:
// steady-state 32+32 batches on a 100 k-vertex lattice at k = 4 with the
// benchmark's random-edge cover, after a 64-batch fill of the live window.
// batch times whole Mutate calls; collect and repair re-run the two halves
// of the last batch's maintenance (both idempotent on a settled index).
func BenchmarkMutate(b *testing.B) {
	const adds, window = 32, 64
	g := testgraph.Lattice(100_000, 1)
	ix, err := New(g, Options{K: 4, Strategy: cover.RandomEdge, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st := newEdgeStream(g, window, 1)
	var add, remove []graph.Edge
	for range window {
		add, remove = st.next(adds, 0, nil)
		if _, err := ix.Mutate(add, remove); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("batch", func(b *testing.B) {
		batches := make([][2][]graph.Edge, b.N)
		for i := range batches {
			batches[i][0], batches[i][1] = st.next(adds, 0, nil)
		}
		b.ResetTimer()
		rows := 0
		for _, m := range batches {
			res, err := ix.Mutate(m[0], m[1])
			if err != nil {
				b.Fatal(err)
			}
			rows += res.RowsRecomputed
		}
		add, remove = batches[b.N-1][0], batches[b.N-1][1]
		b.ReportMetric(float64(rows)/float64(b.N), "rows/batch")
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*2*adds), "us/edge")
	})
	// collect seeds both phases from the last batch's edge sources on the
	// current overlay: the same seeds and bounds Mutate used, each phase one
	// multi-source backward BFS.
	collect := func() []int32 {
		bfs, n := &ix.scratches[0].bfs, ix.NumVertices()
		bfs.Reset(n)
		for _, e := range remove {
			bfs.Visit(e.Src)
		}
		ids := ix.collectBackward(bfs, ix.k-1, ix.affected[:0])
		bfs.Reset(n)
		bfs.Expand(ix.dg.base, &ix.dg.ov, graph.Backward) // no promotions: level 0 is empty
		for _, e := range add {
			bfs.Visit(e.Src)
		}
		ids = ix.collectBackward(bfs, ix.k, ids)
		slices.Sort(ids)
		ix.affected = slices.Compact(ids)
		return ix.affected
	}
	b.Run("collect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			collect()
		}
	})
	ids := slices.Clone(collect())
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.repair(ids)
		}
		b.ReportMetric(float64(len(ids)), "rows/batch")
	})
}
