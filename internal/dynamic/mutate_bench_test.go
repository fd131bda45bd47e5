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
// batch times whole Mutate calls and reports the rows each one re-derived
// and relaxed; collect, repair and relax re-run the three parts of the
// last batch's maintenance (each idempotent on a settled index).
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
		rederived, relaxed := 0, 0
		for _, m := range batches {
			res, err := ix.Mutate(m[0], m[1])
			if err != nil {
				b.Fatal(err)
			}
			rederived += res.RowsRecomputed
			relaxed += res.RowsRelaxed
		}
		add, remove = batches[b.N-1][0], batches[b.N-1][1]
		b.ReportMetric(float64(rederived)/float64(b.N), "rederived/batch")
		b.ReportMetric(float64(relaxed)/float64(b.N), "relaxed/batch")
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*2*adds), "us/edge")
	})
	// collect runs both collections on the last batch's edges over the
	// current overlay: the removal balls (one multi-source backward BFS)
	// and the relaxation plan of its insertions (two BFSs per edge).
	collect := func() []int32 {
		bfs := &ix.scratches[0].bfs
		bfs.Reset(ix.NumVertices())
		for _, e := range remove {
			bfs.Visit(e.Src)
		}
		ids := ix.collectBackward(bfs, ix.k-1, ix.affected[:0])
		slices.Sort(ids)
		ix.affected = slices.Compact(ids)
		ix.planRelax(add, nil, ix.affected)
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
			ix.repair(ids, &relaxPlan{})
		}
		b.ReportMetric(float64(len(ids)), "rows/batch")
	})
	b.Run("relax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.repair(nil, &ix.relax)
		}
		b.ReportMetric(float64(ix.relax.runs()), "rows/batch")
	})
}
