package dynamic

import (
	"fmt"
	"slices"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// TestRepairMatchesReferenceRows drives benchmark-shaped batches — 32 new
// edges, some joining two uncovered vertices so promotions happen, plus
// removal of the edges added 8 batches earlier — through indexes at
// Parallelism 1, 2 and 8. After every batch each row must equal the
// reference rows of the materialized graph arc for arc. The maintenance
// splits the rows it touches in two, and both counts are fixed by the
// locality argument, only their cost may change: RowsRecomputed must be
// the union of the removal balls and the promoted vertices, RowsRelaxed
// the other rows whose reference row changed, every one of them inside
// an insertion or promotion ball, and both must be the same at every
// parallelism.
func TestRepairMatchesReferenceRows(t *testing.T) {
	const adds, joins, window, batches = 32, 4, 8, 12
	fixtures := []struct {
		name  string
		g     *graph.Graph
		k     int
		strat cover.Strategy
	}{
		{"lattice", testgraph.Lattice(1000, 9), 3, cover.RandomEdge},
		{"random", testgraph.Random(800, 2400, 9), 2, cover.DegreePrioritized},
	}
	for _, fx := range fixtures {
		var want [][2]int // RowsRecomputed and RowsRelaxed per batch at Parallelism 1
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/par=%d", fx.name, par), func(t *testing.T) {
				ix, err := New(fx.g, Options{K: fx.k, Strategy: fx.strat, Seed: 3, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				st := newEdgeStream(fx.g, window, 5)
				promotions, relaxed := 0, 0
				preRows := bucketRows(ix, testgraph.ReferenceRows(fx.g, ix.coverList, ix.k))
				for b := 0; b < batches; b++ {
					add, remove := st.next(adds, joins, uncovered(ix))
					pre, preCover := ix.dg.Materialize(), len(ix.coverList)
					res, err := ix.Mutate(add, remove)
					if err != nil {
						t.Fatal(err)
					}
					if res.Added != len(add) || res.Removed != len(remove) {
						t.Fatalf("batch %d: %+v, want %d adds and %d removes applied", b, res, len(add), len(remove))
					}
					promotions += res.Promoted
					relaxed += res.RowsRelaxed
					post := ix.dg.Materialize()
					tag := fmt.Sprintf("batch %d", b)
					postRows := checkReferenceRows(t, ix, post, tag)
					promoted := ix.coverList[preCover:]
					rederived := removalBalls(ix, pre, remove, promoted)
					if res.RowsRecomputed != len(rederived) {
						t.Fatalf("%s: RowsRecomputed %d, removal balls and promoted vertices %d", tag, res.RowsRecomputed, len(rederived))
					}
					balls := insertionBalls(ix, post, add, promoted)
					changed := 0
					for id := range preRows {
						if rederived[int32(id)] || slices.Equal(preRows[id], postRows[id]) {
							continue
						}
						if !balls[int32(id)] {
							t.Fatalf("%s: row %d changed outside every ball", tag, id)
						}
						changed++
					}
					if res.RowsRelaxed != changed {
						t.Fatalf("%s: RowsRelaxed %d, changed insertion and promotion ball rows %d", tag, res.RowsRelaxed, changed)
					}
					got := [2]int{res.RowsRecomputed, res.RowsRelaxed}
					if par == 1 {
						want = append(want, got)
					} else if b < len(want) && got != want[b] {
						t.Fatalf("%s: rows (recomputed, relaxed) %v, %v at Parallelism 1", tag, got, want[b])
					}
					preRows = postRows
				}
				if promotions == 0 || relaxed == 0 {
					t.Errorf("%d promotions and %d relaxed rows over the stream, want both", promotions, relaxed)
				}
				if par > 1 && len(ix.scratches) < 2 {
					t.Errorf("no batch took the parallel repair path (%d scratches)", len(ix.scratches))
				}
			})
		}
	}
}

// TestAddOnlyBatchesRederiveOnlyPromotions runs an insert-only stream:
// with no removal ball, the only rows re-derived are the promoted
// vertices' own, and every other change is a relaxation.
func TestAddOnlyBatchesRederiveOnlyPromotions(t *testing.T) {
	const adds, joins, batches = 32, 4, 10
	g := testgraph.Lattice(1000, 4)
	ix, err := New(g, Options{K: 3, Strategy: cover.RandomEdge, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := newEdgeStream(g, batches+1, 6)
	promotions := 0
	for b := 0; b < batches; b++ {
		add, remove := st.next(adds, joins, uncovered(ix))
		if len(remove) != 0 {
			t.Fatalf("batch %d removes %d edges", b, len(remove))
		}
		res, err := ix.Mutate(add, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsRecomputed != res.Promoted || res.RowsRelaxed == 0 {
			t.Fatalf("batch %d: %+v, want RowsRecomputed == Promoted and rows relaxed", b, res)
		}
		promotions += res.Promoted
		checkReferenceRows(t, ix, ix.dg.Materialize(), fmt.Sprintf("batch %d", b))
	}
	if promotions == 0 {
		t.Error("no batch promoted a vertex")
	}
}

// uncovered lists the vertices outside the index's cover.
func uncovered(ix *Index) []graph.Vertex {
	var out []graph.Vertex
	for v, id := range ix.coverID {
		if id < 0 {
			out = append(out, graph.Vertex(v))
		}
	}
	return out
}

// bucketRows turns reference rows into (target, bucket) arcs, the form in
// which the index stores them.
func bucketRows(ix *Index, ref [][]testgraph.CoverArc) [][]core.Arc {
	rows := make([][]core.Arc, len(ref))
	for u, row := range ref {
		for _, a := range row {
			rows[u] = append(rows[u], core.MakeArc(a.To, ix.bucketFor(a.Dist)))
		}
	}
	return rows
}

// checkReferenceRows compares every row and the arc count with the
// single-threaded reference build over g, and returns the reference rows
// bucketed as the index stores them.
func checkReferenceRows(t *testing.T, ix *Index, g *graph.Graph, tag string) [][]core.Arc {
	t.Helper()
	want := bucketRows(ix, testgraph.ReferenceRows(g, ix.coverList, ix.k))
	arcs := 0
	for u, row := range want {
		if got := ix.core.Row(int32(u)); !slices.Equal(got, row) {
			t.Fatalf("%s: row %d is %v, reference %v", tag, u, got, row)
		}
		arcs += len(row)
	}
	if ix.arcCount != arcs {
		t.Fatalf("%s: arcCount %d, reference %d", tag, ix.arcCount, arcs)
	}
	return want
}

// removalBalls is the set of rows the maintenance re-derives: the cover
// rows within k-1 hops backward of a live removed edge's source on the
// pre-batch graph, and the promoted vertices.
func removalBalls(ix *Index, pre *graph.Graph, remove []graph.Edge, promoted []graph.Vertex) map[int32]bool {
	rows := map[int32]bool{}
	for _, e := range remove {
		if pre.HasEdge(e.Src, e.Dst) {
			addBall(ix, rows, pre, e.Src, ix.k-1)
		}
	}
	for _, c := range promoted {
		rows[ix.coverID[c]] = true
	}
	return rows
}

// insertionBalls is the set of rows a relaxation may change: the cover
// rows within k-1 hops backward of an added edge's source and within k
// hops backward of a promoted vertex, on the post-batch graph.
func insertionBalls(ix *Index, post *graph.Graph, add []graph.Edge, promoted []graph.Vertex) map[int32]bool {
	rows := map[int32]bool{}
	for _, e := range add {
		addBall(ix, rows, post, e.Src, ix.k-1)
	}
	for _, c := range promoted {
		addBall(ix, rows, post, c, ix.k)
	}
	return rows
}

// addBall adds to rows the cover vertices within hops backward of src.
func addBall(ix *Index, rows map[int32]bool, g *graph.Graph, src graph.Vertex, hops int) {
	for v, d := range graph.BFSDistances(g, src, graph.Backward) {
		if d != graph.InfDist && int(d) <= hops && ix.coverID[v] >= 0 {
			rows[ix.coverID[v]] = true
		}
	}
}
