package dynamic

import (
	"fmt"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// TestRepairMatchesReferenceRows drives benchmark-shaped batches — 32 new
// edges, some joining two uncovered vertices so promotions happen, plus
// removal of the edges added 8 batches earlier — through indexes at
// Parallelism 1, 2 and 8. After every batch each row must equal the
// reference rows of the materialized graph arc for arc, and RowsRecomputed
// must be the same at every parallelism and equal to the union of the
// per-edge backward balls: the set the maintenance re-derives is fixed by
// the locality argument, only its cost may change.
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
		var wantRows []int // RowsRecomputed per batch at Parallelism 1
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/par=%d", fx.name, par), func(t *testing.T) {
				ix, err := New(fx.g, Options{K: fx.k, Strategy: fx.strat, Seed: 3, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				st := newEdgeStream(fx.g, window, 5)
				promotions := 0
				for b := 0; b < batches; b++ {
					var uncovered []graph.Vertex
					for v, id := range ix.coverID {
						if id < 0 {
							uncovered = append(uncovered, graph.Vertex(v))
						}
					}
					add, remove := st.next(adds, joins, uncovered)
					pre, preCover := ix.dg.Materialize(), len(ix.coverList)
					res, err := ix.Mutate(add, remove)
					if err != nil {
						t.Fatal(err)
					}
					if res.Added != len(add) || res.Removed != len(remove) {
						t.Fatalf("batch %d: %+v, want %d adds and %d removes applied", b, res, len(add), len(remove))
					}
					promotions += res.Promoted
					post := ix.dg.Materialize()
					if want := unionOfBalls(ix, pre, post, add, remove, ix.coverList[preCover:]); res.RowsRecomputed != want {
						t.Fatalf("batch %d: RowsRecomputed %d, union of per-edge balls %d", b, res.RowsRecomputed, want)
					}
					if par == 1 {
						wantRows = append(wantRows, res.RowsRecomputed)
					} else if b < len(wantRows) && res.RowsRecomputed != wantRows[b] {
						t.Fatalf("batch %d: RowsRecomputed %d, %d at Parallelism 1", b, res.RowsRecomputed, wantRows[b])
					}
					checkReferenceRows(t, ix, post, fmt.Sprintf("batch %d", b))
				}
				if promotions == 0 {
					t.Error("no batch promoted a vertex")
				}
				if par > 1 && len(ix.scratches) < 2 {
					t.Errorf("no batch took the parallel repair path (%d scratches)", len(ix.scratches))
				}
			})
		}
	}
}

// checkReferenceRows compares every row and the arc count with the
// single-threaded reference build over g.
func checkReferenceRows(t *testing.T, ix *Index, g *graph.Graph, tag string) {
	t.Helper()
	want := testgraph.ReferenceRows(g, ix.coverList, ix.k)
	arcs := 0
	for u, row := range want {
		if len(ix.rows[u]) != len(row) {
			t.Fatalf("%s: row %d has %d arcs, reference %d", tag, u, len(ix.rows[u]), len(row))
		}
		for i, a := range row {
			if got := ix.rows[u][i]; got.to != a.To || got.w != ix.bucketFor(a.Dist) {
				t.Fatalf("%s: row %d arc %d is %+v, reference %+v", tag, u, i, got, a)
			}
		}
		arcs += len(row)
	}
	if ix.arcCount != arcs {
		t.Fatalf("%s: arcCount %d, reference %d", tag, ix.arcCount, arcs)
	}
}

// unionOfBalls counts the cover rows the per-edge definition of the
// maintenance re-derives: backward (k-1)-balls of live removed edges'
// sources on the pre-batch graph and of added edges' sources on the
// post-batch graph, plus each promoted vertex and its backward k-ball.
func unionOfBalls(ix *Index, pre, post *graph.Graph, add, remove []graph.Edge, promoted []graph.Vertex) int {
	rows := map[int32]bool{}
	ball := func(g *graph.Graph, src graph.Vertex, hops int) {
		for v, d := range graph.BFSDistances(g, src, graph.Backward) {
			if d != graph.InfDist && int(d) <= hops && ix.coverID[v] >= 0 {
				rows[ix.coverID[v]] = true
			}
		}
	}
	for _, e := range remove {
		if pre.HasEdge(e.Src, e.Dst) {
			ball(pre, e.Src, ix.k-1)
		}
	}
	for _, e := range add {
		ball(post, e.Src, ix.k-1)
	}
	for _, c := range promoted {
		ball(post, c, ix.k)
	}
	return len(rows)
}
