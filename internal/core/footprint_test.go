package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// footprint returns the bytes held by every slice an index owns, keyed by
// field path (length × element size). It walks the fields by reflection,
// so a field added later is counted without editing the test, and follows
// pointers into owned structs (the cover set) but not g: the indexed graph
// is not part of the index, as in Table 4 of the paper.
func footprint(ix *Index) map[string]int {
	out := make(map[string]int)
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch {
			case name == "g":
			case f.Kind() == reflect.Slice:
				out[name] = f.Len() * int(f.Type().Elem().Size())
			case f.Kind() == reflect.Pointer && !f.IsNil() && f.Elem().Kind() == reflect.Struct:
				walk(name+".", f.Elem())
			}
		}
	}
	walk("", reflect.ValueOf(ix).Elem())
	return out
}

// TestIndexFootprint holds a built and a loaded index to a memory budget of
// 8 B per index arc: one 4-byte Arc in the forward CSR and one in the
// transposed CSR, and no other per-arc array. Everything else must be
// linear in the vertices, the cover or the graph edges:
//
//   - 5 B per vertex: the cover-id map (4) and the cover membership (1);
//   - 20 B per cover id: the cover list and the four CSR heads (forward,
//     transposed and two fringe), 4 B each, plus 4 B for each head's
//     closing offset;
//   - 4 B per graph edge: the fringe CSRs list each edge with exactly one
//     cover endpoint once, at that endpoint.
//
// Two shapes: the lattice, whose rows are all short, and the hub-heavy
// Human stand-in at k = 3 with the degree-prioritised cover, as
// BenchmarkEnumerate builds it, whose hub rows span a large share of the
// cover. A per-row layout sized by the cover rather than by the row's arcs
// would break the budget on the hubs.
func TestIndexFootprint(t *testing.T) {
	human, _ := gen.Dataset("Human")
	hubs := human.Generate()
	lattice := testgraph.Lattice(3000, 5)
	for _, fx := range []struct {
		name     string
		g        *graph.Graph
		strategy cover.Strategy
	}{
		{"lattice", lattice, cover.RandomEdge},
		{"lattice", lattice, cover.DegreePrioritized},
		{"hubs", hubs, cover.DegreePrioritized},
	} {
		g := fx.g
		built, err := Build(g, Options{K: 3, Strategy: fx.strategy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := built.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadBinaryIndex(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			ix   *Index
		}{{"built", built}, {"loaded", loaded}} {
			label := fmt.Sprintf("%s %v %s", fx.name, fx.strategy, c.name)
			total := 0
			for _, b := range footprint(c.ix) {
				total += b
			}
			arcs, nc := c.ix.NumIndexEdges(), c.ix.coverSet.Len()
			budget := 8*arcs + 5*g.NumVertices() + 20*nc + 4*4 + 4*g.NumEdges()
			t.Logf("%s: %d B held, budget %d B, %d arcs", label, total, budget, arcs)
			if total > budget {
				t.Errorf("%s: %d B held, budget %d B (%d arcs, %.1f B per arc): %v",
					label, total, budget, arcs, float64(total)/float64(arcs), footprint(c.ix))
			}
		}
	}
}
