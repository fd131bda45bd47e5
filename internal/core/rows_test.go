package core

import (
	"fmt"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// rowGraphs are small graphs with the shapes the row builder must not trip
// on: cycles and self-loops, a hub, no edges at all, fewer cover vertices
// than workers and more than one chunk of them.
func rowGraphs() map[string]*graph.Graph {
	loops := graph.NewBuilder(30)
	for v := graph.Vertex(0); v < 30; v++ {
		loops.AddEdge(v, (v+1)%30)
		if v%4 == 0 {
			loops.AddEdge(v, v)
		}
	}
	return map[string]*graph.Graph{
		"random":   testgraph.Random(70, 260, 17),
		"chunks":   testgraph.Random(3*rowChunk, 5*rowChunk, 4),
		"loops":    loops.Build(),
		"star":     testgraph.Star(25, true),
		"path":     testgraph.Path(4),
		"edgeless": graph.NewBuilder(6).Build(),
	}
}

// TestBuildsMatchReferenceRows checks the plain and (h,k) builds arc for arc
// — offsets, targets and stored weights — against the single-threaded
// reference, at every worker count that takes a different path through the
// chunk cursor.
func TestBuildsMatchReferenceRows(t *testing.T) {
	for name, g := range rowGraphs() {
		for _, workers := range []int{1, 2, 8} {
			for _, k := range []int{1, 2, 3, 5, Unbounded} {
				label := fmt.Sprintf("%s k=%d workers=%d", name, k, workers)
				ix, err := Build(g, Options{K: k, Strategy: cover.DegreePrioritized, Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				compareRows(t, label, testgraph.ReferenceRows(g, ix.coverSet.List(), k), ix.outHead, len(ix.outArc),
					func(p int) (int32, uint) { return ix.outArc[p].To(), uint(ix.outArc[p].W()) },
					func(d int32) uint { return uint(ix.bucketFor(d)) })
			}
			for _, hk := range [][2]int{{1, 3}, {2, 5}, {2, 7}} {
				h, k := hk[0], hk[1]
				label := fmt.Sprintf("%s (h,k)=(%d,%d) workers=%d", name, h, k, workers)
				ix, err := BuildHK(g, HKOptions{H: h, K: k, Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				compareRows(t, label, testgraph.ReferenceRows(g, ix.coverSet.List(), k), ix.outHead, len(ix.outAdj),
					func(p int) (int32, uint) { return ix.outAdj[p], ix.weights.get(p) },
					func(d int32) uint { return uint(max(int(d)-(k-2*h), 0)) })
			}
		}
	}
}

// compareRows checks a CSR of arcs arcs long, arc p read by arcAt as its
// target and stored weight, against the reference rows.
func compareRows(t *testing.T, label string, want [][]testgraph.CoverArc, head []int32, arcs int, arcAt func(p int) (int32, uint), weightOf func(dist int32) uint) {
	t.Helper()
	if len(head) != len(want)+1 || head[0] != 0 {
		t.Fatalf("%s: %d offsets starting at %d for %d rows", label, len(head), head[0], len(want))
	}
	for u, row := range want {
		lo, hi := int(head[u]), int(head[u+1])
		if hi-lo != len(row) {
			t.Fatalf("%s: row %d has %d arcs, reference %d", label, u, hi-lo, len(row))
		}
		for i, a := range row {
			if to, w := arcAt(lo + i); to != a.To || w != weightOf(a.Dist) {
				t.Fatalf("%s: row %d arc %d is (%d, w%d), reference (%d, w%d at distance %d)",
					label, u, i, to, w, a.To, weightOf(a.Dist), a.Dist)
			}
		}
	}
	if int(head[len(want)]) != arcs {
		t.Fatalf("%s: offsets end at %d, %d arcs stored", label, head[len(want)], arcs)
	}
}
