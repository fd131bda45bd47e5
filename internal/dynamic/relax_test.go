package dynamic

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// TestRelaxMatchesRederive is a differential test of the maintenance: after
// every batch, the relaxed and re-derived rows of the mutable index must
// equal the rows a plain BFS derives from scratch on the materialized graph
// (testgraph.ReferenceRows). Each batch mixes the cases relaxation must get
// right: a new path through two new edges, an edge added and removed in
// the same batch, joins of two uncovered vertices, base edges removed and,
// a batch later, added back.
func TestRelaxMatchesRederive(t *testing.T) {
	const batches = 6
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", testgraph.Random(150, 420, 11)},
		{"lattice", testgraph.Lattice(150, 11)},
	}
	for _, fx := range graphs {
		for k := 1; k <= 4; k++ {
			for _, strat := range []cover.Strategy{cover.RandomEdge, cover.DegreePrioritized} {
				for _, par := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s/k=%d/%v/par=%d", fx.name, k, strat, par), func(t *testing.T) {
						ix, err := New(fx.g, Options{K: k, Strategy: strat, Seed: 7, Parallelism: par})
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewPCG(uint64(k), 0xd1ff))
						var restore []graph.Edge
						for b := 0; b < batches; b++ {
							add, remove := mixedBatch(ix, rng, restore)
							restore = remove[len(remove)-2:]
							if _, err := ix.Mutate(add, remove); err != nil {
								t.Fatal(err)
							}
							tag := fmt.Sprintf("batch %d", b)
							checkReferenceRows(t, ix, ix.dg.Materialize(), tag)
							if err := ix.CheckInvariants(); err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
						}
					})
				}
			}
		}
	}
}

// mixedBatch draws one batch over the index's live graph: restore (base
// edges the previous batch removed) added back; two new edges u1→v1 and
// u2→v2 with u2 an out-neighbor of v1, so a path c⇝u1→v1→u2→v2⇝c′ needs
// both; one absent and one live edge each both added and removed; two
// joins of uncovered vertices; and, last, two live base edges removed.
func mixedBatch(ix *Index, rng *rand.Rand, restore []graph.Edge) (add, remove []graph.Edge) {
	n := ix.NumVertices()
	vertex := func() graph.Vertex { return graph.Vertex(rng.IntN(n)) }
	absent := func(from, to func() graph.Vertex) graph.Edge {
		for {
			e := graph.Edge{Src: from(), Dst: to()}
			if e.Src != e.Dst && !ix.dg.HasEdge(e.Src, e.Dst) {
				return e
			}
		}
	}
	add = append(add, restore...)

	e1 := absent(vertex, vertex)
	next := func() graph.Vertex {
		if out := ix.dg.AppendOutNeighbors(e1.Dst, nil); len(out) > 0 {
			return out[rng.IntN(len(out))]
		}
		return e1.Dst
	}
	add = append(add, e1, absent(next, vertex))

	churn := absent(vertex, vertex)
	add, remove = append(add, churn), append(remove, churn)
	var base []graph.Edge
	ix.dg.Base().ForEachEdge(func(u, v graph.Vertex) {
		if ix.dg.HasEdge(u, v) {
			base = append(base, graph.Edge{Src: u, Dst: v})
		}
	})
	live := base[rng.IntN(len(base))]
	add, remove = append(add, live), append(remove, live)

	if free := uncovered(ix); len(free) > 1 {
		pick := func() graph.Vertex { return free[rng.IntN(len(free))] }
		add = append(add, absent(pick, pick), absent(pick, pick))
	}
	for range 2 {
		remove = append(remove, base[rng.IntN(len(base))])
	}
	return add, remove
}

// FuzzMutate builds a graph of at most 64 vertices, a hop bound and a
// cover from the fuzz bytes, then applies the rest of them as mutation
// batches; after each one every row must equal the reference rows of the
// materialized graph, the cover invariants must hold, and ReachBatch at
// parallelism 1, 2 and 7 must answer every pair as scalar Reach and the
// BFS oracle do.
//
// Layout: n-1, k-1, cover strategy (modulo 3), base edge count, then that many
// (src, dst) byte pairs; then batches, each an op count followed by that
// many (op, src, dst) triples, op odd for a removal. Vertex bytes are taken
// modulo n.
func FuzzMutate(f *testing.F) {
	f.Add([]byte{7, 2, 0, 4, 0, 1, 1, 2, 2, 3, 3, 4, 3, 0, 4, 6, 1, 6, 7, 0, 6, 5})
	f.Add([]byte{9, 3, 1, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 4, 1, 1, 2, 0, 5, 9, 2, 0, 9, 8, 1, 2, 3})
	f.Add([]byte{63, 1, 0, 0, 3, 0, 10, 20, 0, 20, 30, 0, 40, 50, 2, 1, 10, 20, 0, 10, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%64
		k := 1 + next()%4
		strat := cover.Strategy(next() % 3)
		vertex := func() graph.Vertex { return graph.Vertex(next() % n) }
		gb := graph.NewBuilder(n)
		for m := next(); m > 0; m-- {
			gb.AddEdge(vertex(), vertex())
		}
		ix, err := New(gb.Build(), Options{K: k, Strategy: strat, Seed: 1, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]core.Pair, 0, n*n)
		for s := range graph.Vertex(n) {
			for t := range graph.Vertex(n) {
				pairs = append(pairs, core.Pair{S: s, T: t})
			}
		}
		for b := 0; len(data) > 0 && b < 8; b++ {
			var add, remove []graph.Edge
			for ops := next(); ops > 0 && len(data) > 0; ops-- {
				op, e := next(), graph.Edge{Src: vertex(), Dst: vertex()}
				if op%2 == 1 {
					remove = append(remove, e)
				} else {
					add = append(add, e)
				}
			}
			if _, err := ix.Mutate(add, remove); err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("batch %d", b)
			checkReferenceRows(t, ix, ix.dg.Materialize(), tag)
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			checkBatch(t, ix, pairs, tag)
		}
	})
}
