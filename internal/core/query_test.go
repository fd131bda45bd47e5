package core

import (
	"slices"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// overlayOf returns the overlay that turns base into live: per vertex and
// side, the neighbors live adds to base's list and the ones it drops.
func overlayOf(base, live *graph.Graph) graph.Overlay {
	ov := graph.NewOverlay(base.NumVertices())
	without := func(a, b []graph.Vertex) (out []graph.Vertex) {
		for _, v := range a {
			if _, ok := slices.BinarySearch(b, v); !ok {
				out = append(out, v)
			}
		}
		return out
	}
	for v := range graph.Vertex(base.NumVertices()) {
		for dir, pick := range [2]func(*graph.Graph) []graph.Vertex{
			func(g *graph.Graph) []graph.Vertex { return g.OutNeighbors(v) },
			func(g *graph.Graph) []graph.Vertex { return g.InNeighbors(v) },
		} {
			add, rem := without(pick(live), pick(base)), without(pick(base), pick(live))
			if len(add)+len(rem) > 0 {
				ov.Dirty[dir][v>>6] |= 1 << (uint(v) & 63)
				ov.Add[dir][v], ov.Rem[dir][v] = add, rem
			}
		}
	}
	return ov
}

// TestNilScratchReach checks that Reach with a nil scratch, which borrows
// from the package pool only on Case 4 and on dirty lists, answers every
// pair as Reach with a caller's scratch and a BFS oracle do: on a built
// index and on a mutable one whose overlay dirties Case 2–4 lists.
// TestReachDoesNotAllocate pins the nil path's allocations.
func TestNilScratchReach(t *testing.T) {
	const k = 3
	base := testgraph.Random(150, 600, 9)
	var edges []graph.Edge
	for i, e := range base.Edges() {
		if i%5 != 0 {
			edges = append(edges, e)
		}
	}
	for i := range graph.Vertex(60) {
		edges = append(edges, graph.Edge{Src: (i * 37) % 150, Dst: (i*53 + 11) % 150})
	}
	live := graph.FromEdges(150, edges)
	ov := overlayOf(base, live)

	built, err := Build(live, Options{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cov := cover.VertexCover(live, cover.RandomEdge, 2)
	coverID := make([]int32, live.NumVertices())
	for i := range coverID {
		coverID[i] = -1
	}
	for i, u := range cov.List() {
		coverID[u] = int32(i)
	}
	var b graph.BFS
	rows := make([][]Arc, cov.Len())
	for i, u := range cov.List() {
		bucket := func(d int32) uint8 { return WeightBucket(k, d) }
		for _, key := range AppendRow(nil, &b, base, &ov, u, coverID, k, bucket) {
			to, w := UnpackArc(key)
			rows[i] = append(rows[i], MakeArc(to, uint8(w)))
		}
	}
	mutable := NewMutable(base, &ov, k, coverID, rows)

	oracle := testgraph.NewReachOracle(live)
	for _, tc := range []struct {
		name      string
		ix        *Index
		wantDirty bool
	}{{"built", built, false}, {"mutable", mutable, true}} {
		sc := NewQueryScratch()
		var seen [Case4 + 1][2]int // by case, then whether a list it reads is dirty
		for s := range graph.Vertex(live.NumVertices()) {
			for u := range graph.Vertex(live.NumVertices()) {
				want := oracle.Reach(s, u, k)
				if got := tc.ix.Reach(s, u, nil); got != want {
					t.Fatalf("%s: Reach(%d,%d,nil) = %v, oracle %v", tc.name, s, u, got, want)
				}
				if got := tc.ix.Reach(s, u, sc); got != want {
					t.Fatalf("%s: Reach(%d,%d,scratch) = %v, oracle %v", tc.name, s, u, got, want)
				}
				c := tc.ix.Classify(s, u)
				dirty := (c == Case2 || c == Case4) && tc.ix.ov.IsDirty(graph.Backward, u) ||
					(c == Case3 || c == Case4) && tc.ix.ov.IsDirty(graph.Forward, s)
				if dirty {
					seen[c][1]++
				} else {
					seen[c][0]++
				}
			}
		}
		for c := Case1; c <= Case4; c++ {
			if seen[c][0] == 0 {
				t.Errorf("%s: no clean %v pair", tc.name, c)
			}
			if tc.wantDirty && c != Case1 && seen[c][1] == 0 {
				t.Errorf("%s: no %v pair with a dirty list", tc.name, c)
			}
		}
	}
}
