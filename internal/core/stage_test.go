package core

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// items on purpose and a pooled probe may allocate.
var raceEnabled bool

type namedGraph struct {
	name string
	g    *graph.Graph
}

// kernelGraphs is the differential suite's graph set: one scaled-down
// dataset of every internal/gen family and the testgraph shapes.
func kernelGraphs() []namedGraph {
	out := []namedGraph{
		{"lattice", testgraph.Lattice(600, 3)},
		{"random", testgraph.Random(200, 900, 4)},
		{"dag", testgraph.RandomDAG(200, 700, 5)},
		{"star-out", testgraph.Star(120, true)},
		{"star-in", testgraph.Star(120, false)},
		{"path", testgraph.Path(60)},
		{"cycle", testgraph.Cycle(60)},
		{"figure1", testgraph.PaperFigure1()},
	}
	seen := map[gen.Family]bool{}
	for _, s := range gen.All() {
		if !seen[s.Family] {
			seen[s.Family] = true
			out = append(out, namedGraph{s.Family.String(), s.Scaled(max(1, s.N/500)).Generate()})
		}
	}
	return out
}

// kernelPairs draws a pair pool that reaches every branch of the kernel:
// s = t, every edge as a direct-edge pair, short walks (mostly yes) and
// uniform pairs (mostly no), shuffled.
func kernelPairs(g *graph.Graph, rng *rand.Rand) []Pair {
	n := g.NumVertices()
	var pool []Pair
	for v := 0; v < n; v += 7 {
		pool = append(pool, Pair{S: graph.Vertex(v), T: graph.Vertex(v)})
	}
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(graph.Vertex(u)) {
			pool = append(pool, Pair{S: graph.Vertex(u), T: v})
		}
	}
	for i := 0; i < 4*n; i++ {
		s := graph.Vertex(rng.IntN(n))
		t := s
		for steps := 1 + rng.IntN(5); steps > 0; steps-- {
			if row := g.OutNeighbors(t); len(row) > 0 {
				t = row[rng.IntN(len(row))]
			}
		}
		pool = append(pool, Pair{S: s, T: t}, Pair{S: s, T: graph.Vertex(rng.IntN(n))})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// mutableCopy returns a mutable index over ix's graph and cover whose rows
// are copies of ix's CSR rows: the mutable kernels then face the same arcs
// as the static ones.
func mutableCopy(ix *Index) *Index {
	rows := make([][]Arc, len(ix.outHead)-1)
	for u := range rows {
		rows[u] = slices.Clone(ix.outArc[ix.outHead[u]:ix.outHead[u+1]])
	}
	return NewMutable(ix.g, nil, ix.k, ix.coverID, rows)
}

// rowProbeShapes tallies the row probes the staged kernel is sure to make
// for pairs on a mutable index — every Case 1 probe and the first
// neighbour's probe of every Case 2–3 list that is not the direct edge —
// by the length of the row searched and where the column falls in it.
type rowProbeShapes struct {
	empty, single, wide int // rows of length 0, 1 and ≥ batchGroup
	below, above        int // columns below a row's first target, above its last
}

func (sh *rowProbeShapes) add(ix *Index, pairs []Pair) {
	probe := func(row, col int32) {
		r := ix.rows[row]
		switch {
		case len(r) == 0:
			sh.empty++
			return
		case len(r) == 1:
			sh.single++
		case len(r) >= batchGroup:
			sh.wide++
		}
		if col < r[0].To() {
			sh.below++
		}
		if col > r[len(r)-1].To() {
			sh.above++
		}
	}
	for _, p := range pairs {
		cs, ct := ix.coverID[p.S], ix.coverID[p.T]
		switch ix.Classify(p.S, p.T) {
		case Case1:
			probe(cs, ct)
		case Case2:
			if in := ix.g.InNeighbors(p.T); len(in) > 0 && in[0] != p.S {
				probe(cs, ix.coverID[in[0]])
			}
		case Case3:
			if out := ix.g.OutNeighbors(p.S); len(out) > 0 && out[0] != p.T {
				probe(ix.coverID[out[0]], ct)
			}
		}
	}
}

// TestReachBatchKernelMatchesReach is the staged kernel against scalar
// Reach, the same differential shape as a plain-vs-accelerated Dijkstra
// test: every graph × cover strategy × k, batch lengths around the group
// and sub-range sizes, three worker counts, with and without a cancellable
// context. Every built index faces it twice, as built and as a mutable
// copy (mutableCopy), so the lockstep searches over the CSR and over
// packed row slices both answer every batch. It also checks that the suite
// reached every case, Case 1–2 probes of wide rows (at least
// max(32, |S|/16) arcs, the hub rows whose lockstep search takes the most
// trips) and of narrower ones, and the mutable row shapes the lockstep
// search has edges at, so a shrinking fixture cannot hollow it out.
func TestReachBatchKernelMatchesReach(t *testing.T) {
	lengths := []int{0, 1, 31, 32, 33, 64, 65, 1000}
	var cases [Case4 + 1]int
	var wideRows, narrowRows, directEdges int
	var shapes rowProbeShapes
	for _, tg := range kernelGraphs() {
		for _, strat := range []cover.Strategy{cover.RandomEdge, cover.DegreePrioritized} {
			for _, k := range []int{1, 2, 3, 4, Unbounded} {
				ix, err := Build(tg.g, Options{K: k, Strategy: strat, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				mut := mutableCopy(ix)
				rng := rand.New(rand.NewPCG(uint64(k+10), uint64(strat)))
				pool := kernelPairs(tg.g, rng)
				shapes.add(mut, pool[:min(len(pool), lengths[len(lengths)-1])])
				sc := NewQueryScratch()
				want := make([]bool, len(pool))
				for i, p := range pool {
					want[i] = ix.Reach(p.S, p.T, sc)
					if got := mut.Reach(p.S, p.T, sc); got != want[i] {
						t.Fatalf("%s %v k=%d: mutable copy's Reach(%v) = %v, built index's %v", tg.name, strat, k, p, got, want[i])
					}
					c := ix.Classify(p.S, p.T)
					cases[c]++
					if c == Case1 || c == Case2 {
						if n := len(ix.row(ix.coverID[p.S])); n >= 32 && n*16 >= ix.coverSet.Len() {
							wideRows++
						} else {
							narrowRows++
						}
					}
					if c != CaseEqual && tg.g.HasEdge(p.S, p.T) {
						directEdges++
					}
				}
				for _, n := range lengths {
					pairs := make([]Pair, n)
					wantN := make([]bool, n)
					for i := range pairs {
						pairs[i], wantN[i] = pool[i%len(pool)], want[i%len(pool)]
					}
					for _, par := range []int{1, 2, 7} {
						for _, cancellable := range []bool{false, true} {
							for _, kind := range []struct {
								name string
								ix   *Index
							}{{"built", ix}, {"mutable", mut}} {
								ctx, cancel := context.Background(), context.CancelFunc(func() {})
								if cancellable {
									ctx, cancel = context.WithCancel(ctx)
								}
								got, err := kind.ix.ReachBatch(ctx, pairs, par)
								cancel()
								if err != nil {
									t.Fatal(err)
								}
								for i := range got {
									if got[i] != wantN[i] {
										t.Fatalf("%s %s %v k=%d n=%d par=%d cancellable=%v: pair %v (%v) = %v, Reach says %v",
											kind.name, tg.name, strat, k, n, par, cancellable, pairs[i], ix.Classify(pairs[i].S, pairs[i].T), got[i], wantN[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("pairs per case %v, wide-row %d, narrow-row %d, direct edges %d", cases, wideRows, narrowRows, directEdges)
	for c, n := range cases {
		if n == 0 {
			t.Errorf("no pair of case %v", QueryCase(c))
		}
	}
	if wideRows == 0 || narrowRows == 0 || directEdges == 0 {
		t.Errorf("wide-row %d, narrow-row %d, direct-edge %d pairs: every kind must occur", wideRows, narrowRows, directEdges)
	}
	t.Logf("mutable row probes: %+v", shapes)
	if shapes.empty == 0 || shapes.single == 0 || shapes.wide == 0 || shapes.below == 0 || shapes.above == 0 {
		t.Errorf("mutable row probes %+v: rows of length 0, 1 and ≥ %d, and columns below and above a row, must all occur", shapes, batchGroup)
	}
}

// FuzzReachBatch turns bytes into a small graph, a hop bound, a cover
// strategy and a pair list, and requires ReachBatch on the built index and
// on its mutable copy to answer every pair as scalar Reach does. Layout: n-1, k selector, strategy, edge count E, then
// E (u, v) byte pairs, then (s, t) byte pairs; ids are taken mod n.
func FuzzReachBatch(f *testing.F) {
	f.Add([]byte{9, 2, 0, 9, 0, 1, 2, 1, 1, 3, 3, 4, 3, 5, 4, 6, 6, 7, 6, 8, 8, 9, 0, 3, 2, 3, 0, 9, 5, 5, 4, 7})
	f.Add([]byte{30, 4, 1, 40, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 0, 5, 5, 10, 10, 15,
		15, 20, 20, 25, 25, 30, 30, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 7, 3, 9, 12, 1, 30, 2, 17, 4})
	f.Add([]byte{63, 0, 0, 64, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 9, 0, 10, 0, 11, 0, 12, 0})
	ks := []int{1, 2, 3, 4, Unbounded}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%64
		k := ks[int(data[1])%len(ks)]
		strat := cover.Strategy(int(data[2]) % 2)
		edges := int(data[3])
		data = data[4:]
		b := graph.NewBuilder(n)
		for ; edges > 0 && len(data) >= 2; edges-- {
			b.AddEdge(graph.Vertex(int(data[0])%n), graph.Vertex(int(data[1])%n))
			data = data[2:]
		}
		g := b.Build()
		ix, err := Build(g, Options{K: k, Strategy: strat, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var pairs []Pair
		for ; len(data) >= 2; data = data[2:] {
			pairs = append(pairs, Pair{S: graph.Vertex(int(data[0]) % n), T: graph.Vertex(int(data[1]) % n)})
		}
		sc := NewQueryScratch()
		mut := mutableCopy(ix)
		for _, par := range []int{1, 3} {
			for _, kind := range []*Index{ix, mut} {
				got, err := kind.ReachBatch(context.Background(), pairs, par)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					if want := ix.Reach(p.S, p.T, sc); got[i] != want {
						t.Fatalf("k=%d par=%d mutable=%v: pair %v (%v) = %v, Reach says %v", k, par, kind == mut, p, ix.Classify(p.S, p.T), got[i], want)
					}
				}
			}
		}
	})
}

// TestReachDoesNotAllocate pins scalar Reach at zero allocations in every
// case once the scratch is warm (Case 4 sizes its bitmap on first use),
// whether the caller passes one or nil and Case 4 borrows a pooled one.
// The nil case is skipped under -race, where sync.Pool drops items on
// purpose.
func TestReachDoesNotAllocate(t *testing.T) {
	g := testgraph.Lattice(2000, 1)
	ix, err := Build(g, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var found [Case4 + 1]*Pair
	rng := rand.New(rand.NewPCG(1, 2))
	for missing, tries := len(found), 0; missing > 0 && tries < 1_000_000; tries++ {
		s := graph.Vertex(rng.IntN(2000))
		p := Pair{S: s, T: s}
		if tries > 0 {
			p.T = graph.Vertex(rng.IntN(2000))
		}
		if c := ix.Classify(p.S, p.T); found[c] == nil {
			found[c] = &p
			missing--
		}
	}
	sc := NewQueryScratch()
	for c, p := range found {
		if p == nil {
			t.Fatalf("no pair of case %v", QueryCase(c))
		}
		ix.Reach(p.S, p.T, sc)
		if allocs := testing.AllocsPerRun(100, func() { ix.Reach(p.S, p.T, sc) }); allocs != 0 {
			t.Errorf("%v query allocates %.1f objects", QueryCase(c), allocs)
		}
		if raceEnabled {
			continue
		}
		ix.Reach(p.S, p.T, nil)
		if allocs := testing.AllocsPerRun(100, func() { ix.Reach(p.S, p.T, nil) }); allocs != 0 {
			t.Errorf("%v query with a nil scratch allocates %.1f objects", QueryCase(c), allocs)
		}
	}
}

// TestReachBatchAllocsIndependentOfSize pins the batch path's object count:
// the result slice and per-worker state, never anything per pair or per
// sub-range. Both sizes must run the same number of workers, so at
// parallelism p the small batch spans p chunks (a 64-pair batch gets one
// worker whatever p asks for). The pairs leave out Case 4, whose scratch
// grows once per worker on first use — how many workers meet one depends
// on stealing — and which TestReachDoesNotAllocate pins once warm.
func TestReachBatchAllocsIndependentOfSize(t *testing.T) {
	g := testgraph.Lattice(2000, 1)
	ix, err := Build(g, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var base []Pair
	for _, p := range kernelPairs(g, rand.New(rand.NewPCG(3, 4))) {
		if ix.Classify(p.S, p.T) != Case4 && len(base) < 64 {
			base = append(base, p)
		}
	}
	batch := func(n int) []Pair {
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = base[i%len(base)]
		}
		return pairs
	}
	for _, par := range []int{1, 2} {
		allocs := func(pairs []Pair) float64 {
			// The fewest objects over repeated batches: the race detector
			// adds allocations of its own to some runs.
			least := math.Inf(1)
			for range 10 {
				least = min(least, testing.AllocsPerRun(1, func() {
					if _, err := ix.ReachBatch(context.Background(), pairs, par); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		small, large := batch(max(64, (par-1)*batchChunk+1)), batch(65_536)
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("parallelism %d: %d pairs allocate %.0f objects, %d pairs %.0f", par, len(small), s, len(large), l)
		} else {
			t.Logf("parallelism %d: %.0f objects per batch", par, s)
		}
	}
}
