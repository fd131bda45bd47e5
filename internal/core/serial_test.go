package core_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// TestIndexBinaryRoundTrip saves and reloads indexes under both cover
// strategies and checks the loaded index against the built one: Reach over
// a grid of pairs, and the k-hop ball from every vertex in both directions,
// which must also equal a BFS oracle. Load re-runs finalize, so the balls
// check the transposed CSR and fringe lists it rebuilds.
func TestIndexBinaryRoundTrip(t *testing.T) {
	const n = 60
	g := testgraph.Random(n, 200, 99)
	for _, strategy := range []cover.Strategy{cover.RandomEdge, cover.DegreePrioritized} {
		for _, k := range []int{2, 3, 6, core.Unbounded} {
			ix, err := core.Build(g, core.Options{K: k, Strategy: strategy, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := core.ReadBinaryIndex(&buf, g)
			if err != nil {
				t.Fatal(err)
			}
			if back.K() != ix.K() || back.NumIndexEdges() != ix.NumIndexEdges() {
				t.Fatalf("%v k=%d: round trip changed shape", strategy, k)
			}
			// Query equivalence over a grid of pairs.
			s1 := core.NewQueryScratch()
			s2 := core.NewQueryScratch()
			for s := 0; s < n; s++ {
				for tt := 0; tt < n; tt += 3 {
					a := ix.Reach(graph.Vertex(s), graph.Vertex(tt), s1)
					b := back.Reach(graph.Vertex(s), graph.Vertex(tt), s2)
					if a != b {
						t.Fatalf("%v k=%d: loaded index disagrees on (%d,%d)", strategy, k, s, tt)
					}
				}
			}
			for v := 0; v < n; v++ {
				for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
					src := graph.Vertex(v)
					want := sortedBall(t, ix, src, dir)
					got := sortedBall(t, back, src, dir)
					label := fmt.Sprintf("%v k=%d src=%d dir=%v cover=%v", strategy, k, v, dir, ix.InCover(src))
					if !slices.Equal(got, want) {
						t.Fatalf("%s: loaded ball %v, built ball %v", label, got, want)
					}
					if oracle := bfsBall(g, src, k, dir); !slices.Equal(got, oracle) {
						t.Fatalf("%s: loaded ball %v, BFS oracle %v", label, got, oracle)
					}
				}
			}
		}
	}
}

// sortedBall enumerates the k-hop ball around src in nearest-first order.
func sortedBall(t *testing.T, ix *core.Index, src graph.Vertex, dir graph.Direction) []core.Neighbor {
	t.Helper()
	ball, _, err := ix.Enumerate(context.Background(), src, core.EnumOptions{Direction: dir, SortByDistance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ball
}

// bfsBall is the k-hop ball around src from exact BFS distances, in the
// order SortByDistance gives: Within before Frontier, ascending vertex id.
func bfsBall(g *graph.Graph, src graph.Vertex, k int, dir graph.Direction) []core.Neighbor {
	var within, frontier []core.Neighbor
	for v, d := range graph.BFSDistances(g, src, dir) {
		switch {
		case d <= 0 || (k != core.Unbounded && int(d) > k):
		case int(d) == k:
			frontier = append(frontier, core.Neighbor{V: graph.Vertex(v), Bucket: core.BucketFrontier})
		default:
			within = append(within, core.Neighbor{V: graph.Vertex(v), Bucket: core.BucketWithin})
		}
	}
	return append(within, frontier...)
}

func TestIndexBinaryRejectsCorruption(t *testing.T) {
	g := testgraph.PaperFigure1()
	ix, err := core.Build(g, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	flip := append([]byte(nil), data...)
	flip[len(flip)-1] ^= 0x55
	if _, err := core.ReadBinaryIndex(bytes.NewReader(flip), g); err == nil {
		t.Error("corrupted payload accepted")
	}
	if _, err := core.ReadBinaryIndex(bytes.NewReader([]byte("NOPE00000000")), g); err == nil {
		t.Error("foreign magic accepted")
	}
}

func TestIndexBinaryRejectsWrongGraph(t *testing.T) {
	g := testgraph.Random(40, 120, 5)
	ix, err := core.Build(g, core.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	other := testgraph.Random(41, 120, 5) // different vertex count
	if _, err := core.ReadBinaryIndex(&buf, other); err == nil {
		t.Error("index attached to a graph with a different vertex count")
	}
}

func TestIndexBinaryEmpty(t *testing.T) {
	g := graph.NewBuilder(4).Build()
	ix, err := core.Build(g, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadBinaryIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumIndexEdges() != 0 {
		t.Errorf("edges = %d", back.NumIndexEdges())
	}
}
