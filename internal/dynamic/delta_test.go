package dynamic

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

func path5() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}})
}

func TestDeltaGraphAddRemove(t *testing.T) {
	d := NewDeltaGraph(path5())
	if d.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", d.NumEdges())
	}
	if !d.AddEdge(4, 0) {
		t.Error("fresh add rejected")
	}
	if d.AddEdge(4, 0) {
		t.Error("duplicate overlay add accepted")
	}
	if d.AddEdge(0, 1) {
		t.Error("duplicate base add accepted")
	}
	if !d.HasEdge(4, 0) || d.NumEdges() != 5 {
		t.Errorf("after add: HasEdge=%v NumEdges=%d", d.HasEdge(4, 0), d.NumEdges())
	}
	if !d.RemoveEdge(1, 2) {
		t.Error("base-edge remove rejected")
	}
	if d.RemoveEdge(1, 2) {
		t.Error("double remove accepted")
	}
	if d.RemoveEdge(2, 0) {
		t.Error("remove of absent edge accepted")
	}
	if d.HasEdge(1, 2) || d.NumEdges() != 4 {
		t.Errorf("after remove: HasEdge=%v NumEdges=%d", d.HasEdge(1, 2), d.NumEdges())
	}
	// Un-remove: re-adding a removed base edge must clear the delta, not
	// grow the added set.
	if !d.AddEdge(1, 2) {
		t.Error("re-add of removed base edge rejected")
	}
	if !d.HasEdge(1, 2) || d.Removed() != 0 || d.Added() != 1 {
		t.Errorf("un-remove bookkeeping: has=%v removed=%d added=%d",
			d.HasEdge(1, 2), d.Removed(), d.Added())
	}
	// Un-add: removing an overlay edge clears the added set.
	if !d.RemoveEdge(4, 0) {
		t.Error("remove of overlay edge rejected")
	}
	if d.HasEdge(4, 0) || d.Added() != 0 || d.DeltaSize() != 0 {
		t.Errorf("un-add bookkeeping: has=%v added=%d delta=%d",
			d.HasEdge(4, 0), d.Added(), d.DeltaSize())
	}
}

func TestDeltaGraphDegreesAndNeighbors(t *testing.T) {
	d := NewDeltaGraph(path5())
	d.AddEdge(1, 4)
	d.AddEdge(1, 0)
	d.RemoveEdge(1, 2)
	if got := d.OutDegree(1); got != 2 {
		t.Errorf("OutDegree(1) = %d, want 2", got)
	}
	if got := d.InDegree(0); got != 1 {
		t.Errorf("InDegree(0) = %d, want 1", got)
	}
	out := d.AppendOutNeighbors(1, nil)
	want := []graph.Vertex{0, 4}
	if len(out) != len(want) || out[0] != want[0] || out[1] != want[1] {
		t.Errorf("OutNeighbors(1) = %v, want %v", out, want)
	}
	in := d.AppendInNeighbors(4, nil)
	want = []graph.Vertex{1, 3}
	if len(in) != len(want) || in[0] != want[0] || in[1] != want[1] {
		t.Errorf("InNeighbors(4) = %v, want %v", in, want)
	}
}

// TestDeltaGraphMatchesMaterialized drives random mutations and checks that
// every adjacency observation through the overlay matches the graph you get
// by materializing it.
func TestDeltaGraphMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xbeef))
	n := 30
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
	}
	base := b.Build()
	d := NewDeltaGraph(base)
	for step := 0; step < 500; step++ {
		u, v := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
		if rng.IntN(2) == 0 {
			d.AddEdge(u, v)
		} else {
			d.RemoveEdge(u, v)
		}
	}
	m := d.Materialize()
	if m.NumEdges() != d.NumEdges() {
		t.Fatalf("materialized edges %d != overlay count %d", m.NumEdges(), d.NumEdges())
	}
	var buf []graph.Vertex
	for u := 0; u < n; u++ {
		src := graph.Vertex(u)
		buf = d.AppendOutNeighbors(src, buf[:0])
		got := append([]graph.Vertex(nil), buf...)
		want := m.OutNeighbors(src)
		if !vertexSlicesEqual(got, want) {
			t.Fatalf("out(%d): overlay %v vs materialized %v", u, got, want)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("out(%d) not sorted: %v", u, got)
		}
		buf = d.AppendInNeighbors(src, buf[:0])
		got = append([]graph.Vertex(nil), buf...)
		if !vertexSlicesEqual(got, m.InNeighbors(src)) {
			t.Fatalf("in(%d): overlay %v vs materialized %v", u, got, m.InNeighbors(src))
		}
		if d.OutDegree(src) != m.OutDegree(src) || d.InDegree(src) != m.InDegree(src) {
			t.Fatalf("degrees of %d diverge", u)
		}
		for w := 0; w < n; w++ {
			if d.HasEdge(src, graph.Vertex(w)) != m.HasEdge(src, graph.Vertex(w)) {
				t.Fatalf("HasEdge(%d,%d) diverges", u, w)
			}
		}
	}
}

// TestDirtyBitmaps drives random add/remove sequences — fresh adds, base
// removals, un-removes and un-adds — and checks after every step that a
// vertex's dirty bit is set exactly when that side's delta lists are not
// both empty (a clear bit means the base slice is the live list), and that
// the map-free neighbor paths (outNeighbors/inNeighbors) and one level of
// the BFS engine over the overlay agree with the merging
// AppendOutNeighbors/AppendInNeighbors for every vertex, without writing
// into a clean vertex's base slice.
func TestDirtyBitmaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0xd1e7))
	n := 40
	base := testgraph.Random(n, 3*n, 4)
	d := NewDeltaGraph(base)
	var added, removed []graph.Edge // live overlay entries, for un-add / un-remove
	for step := 0; step < 400; step++ {
		switch op := rng.IntN(4); {
		case op == 0 && len(added) > 0: // un-add
			i := rng.IntN(len(added))
			if !d.RemoveEdge(added[i].Src, added[i].Dst) {
				t.Fatalf("step %d: un-add of %v rejected", step, added[i])
			}
			added = append(added[:i], added[i+1:]...)
		case op == 1 && len(removed) > 0: // un-remove
			i := rng.IntN(len(removed))
			if !d.AddEdge(removed[i].Src, removed[i].Dst) {
				t.Fatalf("step %d: un-remove of %v rejected", step, removed[i])
			}
			removed = append(removed[:i], removed[i+1:]...)
		case op == 2: // remove a base edge (possibly already removed)
			u := graph.Vertex(rng.IntN(n))
			if out := base.OutNeighbors(u); len(out) > 0 {
				e := graph.Edge{Src: u, Dst: out[rng.IntN(len(out))]}
				if d.RemoveEdge(e.Src, e.Dst) {
					removed = append(removed, e)
				}
			}
		default: // fresh add, a duplicate, or a chance un-remove
			e := graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
			switch {
			case !d.AddEdge(e.Src, e.Dst):
			case base.HasEdge(e.Src, e.Dst):
				removed = slices.DeleteFunc(removed, func(r graph.Edge) bool { return r == e })
			default:
				added = append(added, e)
			}
		}
		checkDirtyBitmaps(t, d, step)
	}
	if d.Added() != len(added) || d.Removed() != len(removed) {
		t.Fatalf("overlay counts %d/%d, tracked %d/%d", d.Added(), d.Removed(), len(added), len(removed))
	}
}

func checkDirtyBitmaps(t *testing.T, d *DeltaGraph, step int) {
	t.Helper()
	var buf, want []graph.Vertex
	var bfs graph.BFS
	for u := 0; u < d.NumVertices(); u++ {
		v := graph.Vertex(u)
		for _, side := range []struct {
			name    string
			dir     graph.Direction
			base    []graph.Vertex
			appendN func(graph.Vertex, []graph.Vertex) []graph.Vertex
			direct  func(graph.Vertex, *[]graph.Vertex) []graph.Vertex
		}{
			{"out", outSide, d.base.OutNeighbors(v), d.AppendOutNeighbors, d.outNeighbors},
			{"in", inSide, d.base.InNeighbors(v), d.AppendInNeighbors, d.inNeighbors},
		} {
			dirty := isDirty(d.ov.Dirty[side.dir], v)
			if has := len(d.ov.Add[side.dir][v]) > 0 || len(d.ov.Rem[side.dir][v]) > 0; has != dirty {
				t.Fatalf("step %d: vertex %d has %s-deltas %v, %s-bit %v", step, v, side.name, has, side.name, dirty)
			}
			want = side.appendN(v, want[:0])
			buf = append(buf[:0], -1)
			got := side.direct(v, &buf)
			if !vertexSlicesEqual(got, want) {
				t.Fatalf("step %d: %s(%d) direct %v, merged %v", step, side.name, v, got, want)
			}
			if !dirty && (len(buf) != 1 || buf[0] != -1 || !vertexSlicesEqual(side.base, want)) {
				t.Fatalf("step %d: clean %s(%d) touched the scratch buffer or differs from base", step, side.name, v)
			}
			bfs.Reset(d.NumVertices())
			bfs.Visit(v)
			level := slices.Sorted(slices.Values(bfs.Expand(d.base, &d.ov, side.dir)))
			if others := slices.DeleteFunc(slices.Clone(want), func(w graph.Vertex) bool { return w == v }); !vertexSlicesEqual(level, others) {
				t.Fatalf("step %d: BFS level %s(%d) %v, merged %v", step, side.name, v, level, others)
			}
		}
	}
}

func vertexSlicesEqual(a, b []graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
