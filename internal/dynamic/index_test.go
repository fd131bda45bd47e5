package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"kreach/internal/bitvec"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// oracle is an independent k-hop BFS over a plain map adjacency, mutated in
// lockstep with the index under test.
type oracle struct {
	n   int
	out map[graph.Vertex]map[graph.Vertex]bool
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{n: g.NumVertices(), out: make(map[graph.Vertex]map[graph.Vertex]bool)}
	g.ForEachEdge(func(u, v graph.Vertex) { o.add(u, v) })
	return o
}

func (o *oracle) add(u, v graph.Vertex) {
	if o.out[u] == nil {
		o.out[u] = make(map[graph.Vertex]bool)
	}
	o.out[u][v] = true
}

func (o *oracle) remove(u, v graph.Vertex) { delete(o.out[u], v) }

func (o *oracle) reach(s, t graph.Vertex, k int) bool {
	if s == t {
		return true
	}
	frontier := []graph.Vertex{s}
	seen := map[graph.Vertex]bool{s: true}
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []graph.Vertex
		for _, u := range frontier {
			for v := range o.out[u] {
				if v == t {
					return true
				}
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return false
}

func mustNew(t *testing.T, g *graph.Graph, k int) *Index {
	t.Helper()
	ix, err := New(g, Options{K: k, Strategy: cover.DegreePrioritized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkAllPairs compares every (s,t) answer against the oracle.
func checkAllPairs(t *testing.T, ix *Index, o *oracle, k int, tag string) {
	t.Helper()
	sc := core.NewQueryScratch()
	for s := 0; s < o.n; s++ {
		for dst := 0; dst < o.n; dst++ {
			sv, tv := graph.Vertex(s), graph.Vertex(dst)
			got, want := ix.Reach(sv, tv, sc), o.reach(sv, tv, k)
			if got != want {
				t.Fatalf("%s: Reach(%d,%d) = %v, want %v", tag, s, dst, got, want)
			}
		}
	}
}

func TestNewRejectsBadK(t *testing.T) {
	g := path5()
	for _, k := range []int{0, -1, -7} {
		if _, err := New(g, Options{K: k}); !errors.Is(err, ErrBadK) {
			t.Errorf("K=%d: err = %v, want ErrBadK", k, err)
		}
	}
}

// TestVertexCountFitsArcs: the one guard every index that stores packed
// arcs runs — New here, and core's Build, BuildWithCover (BuildMulti
// through them), ReadBinaryIndex and the (h,k) build — admits a graph
// whose every cover id fits an arc's target field and rejects one vertex
// more, so an id past the field cannot wrap. It checks the helper, not a
// 2^30-vertex graph.
func TestVertexCountFitsArcs(t *testing.T) {
	if err := core.CheckVertexCount(core.ArcTargets); err != nil {
		t.Errorf("%d vertices: %v", core.ArcTargets, err)
	}
	if err := core.CheckVertexCount(core.ArcTargets + 1); err == nil {
		t.Errorf("%d vertices: no error", core.ArcTargets+1)
	}
	if id := core.ArcTargets - 1; core.MakeArc(int32(id), 2).To() != int32(id) {
		t.Errorf("the largest cover id %d does not survive packing", id)
	}
}

func TestStaticMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0xfeed))
	for _, k := range []int{1, 2, 3, 5} {
		n := 40
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		ix := mustNew(t, g, k)
		checkAllPairs(t, ix, newOracle(g), k, "static")
	}
}

func TestMutateAddCreatesReachability(t *testing.T) {
	// 0→1→2  3→4 disconnected; adding 2→3 links the chains.
	g := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	ix := mustNew(t, g, 4)
	if ix.Reach(0, 4, nil) {
		t.Fatal("0→4 reachable before the bridging edge")
	}
	e0 := ix.Epoch()
	res, err := ix.Mutate([]graph.Edge{{Src: 2, Dst: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 1 || !res.Applied() {
		t.Fatalf("result %+v, want one applied add", res)
	}
	if ix.Epoch() == e0 {
		t.Error("epoch did not advance on mutation")
	}
	if !ix.Reach(0, 4, nil) {
		t.Error("0→4 not reachable after bridging edge (k=4)")
	}
	if ix.Reach(0, 4, nil) && !ix.Reach(2, 4, nil) {
		t.Error("2→4 must be reachable too")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMutateRemoveDestroysReachability(t *testing.T) {
	g := path5() // 0→1→2→3→4
	ix := mustNew(t, g, 4)
	if !ix.Reach(0, 4, nil) {
		t.Fatal("0→4 unreachable on the intact path")
	}
	res, err := ix.Mutate(nil, []graph.Edge{{Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 {
		t.Fatalf("result %+v, want one applied remove", res)
	}
	if ix.Reach(0, 4, nil) {
		t.Error("0→4 still reachable after cutting the path")
	}
	if !ix.Reach(0, 2, nil) || !ix.Reach(3, 4, nil) {
		t.Error("surviving segments lost reachability")
	}
}

func TestMutatePromotionKeepsCoverInvariant(t *testing.T) {
	// A graph with isolated vertices 5 and 6 that the initial cover cannot
	// contain; adding 5→6 must promote one of them.
	g := graph.FromEdges(7, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	ix := mustNew(t, g, 3)
	res, err := ix.Mutate([]graph.Edge{{Src: 5, Dst: 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted != 1 {
		t.Fatalf("result %+v, want one promotion", res)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !ix.Reach(5, 6, nil) {
		t.Error("5→6 unreachable after insertion")
	}
	if ix.Reach(6, 5, nil) {
		t.Error("6→5 must stay unreachable (directed)")
	}
}

func TestMutateCounts(t *testing.T) {
	g := path5()
	ix := mustNew(t, g, 2)
	res, err := ix.Mutate(
		[]graph.Edge{{Src: 0, Dst: 1} /* dup */, {Src: 4, Dst: 0}, {Src: 0, Dst: 99} /* unknown */},
		[]graph.Edge{{Src: 3, Dst: 4}, {Src: 2, Dst: 0} /* missing */, {Src: -1, Dst: 2} /* unknown */},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := MutationResult{Added: 1, Removed: 1, DupAdds: 1, MissingRemoves: 1, UnknownVertex: 2}
	if res.Added != want.Added || res.Removed != want.Removed ||
		res.DupAdds != want.DupAdds || res.MissingRemoves != want.MissingRemoves ||
		res.UnknownVertex != want.UnknownVertex {
		t.Errorf("result %+v, want counts %+v", res, want)
	}
	st := ix.Stats()
	if st.MutationBatches != 1 || st.EdgesAdded != 1 || st.EdgesRemoved != 1 {
		t.Errorf("stats %+v", st)
	}
	// A no-op batch must not bump the epoch — it would spuriously
	// invalidate every cached answer for the dataset.
	before := ix.Epoch()
	noop, err := ix.Mutate([]graph.Edge{{Src: 4, Dst: 0}}, []graph.Edge{{Src: 2, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if noop.Applied() {
		t.Fatalf("expected a no-op batch, got %+v", noop)
	}
	if noop.Epoch != before || ix.Epoch() != before {
		t.Errorf("no-op batch moved epoch %d → %d", before, ix.Epoch())
	}
}

// TestIncrementalMatchesOracle is the core equivalence test: random batches
// of adds/removes, after each of which EVERY pair must answer exactly like
// the BFS oracle on the mutated edge set.
func TestIncrementalMatchesOracle(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		rng := rand.New(rand.NewPCG(uint64(k), 0xabcd))
		n := 32
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
		}
		g := b.Build()
		ix := mustNew(t, g, k)
		o := newOracle(g)
		for batch := 0; batch < 30; batch++ {
			var add, remove []graph.Edge
			for i := 0; i < 1+rng.IntN(4); i++ {
				e := graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
				if rng.IntN(5) < 3 {
					add = append(add, e)
				} else {
					remove = append(remove, e)
				}
			}
			for _, e := range remove {
				o.remove(e.Src, e.Dst)
			}
			for _, e := range add {
				if e.Src != e.Dst {
					o.add(e.Src, e.Dst)
				}
			}
			// Self-loops: the index stores them (they are edges) but they
			// cannot change reachability; the oracle skips them, so keep
			// them out of the generated stream instead.
			if _, err := ix.Mutate(add, remove); err != nil {
				t.Fatal(err)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("k=%d batch %d: %v", k, batch, err)
			}
			checkAllPairs(t, ix, o, k, "incremental")
		}
	}
}

func TestCompactPreservesAnswersAndRetiresOld(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0x1234))
	n := 24
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
	}
	g := b.Build()
	const k = 3
	ix := mustNew(t, g, k)
	o := newOracle(g)
	for i := 0; i < 40; i++ {
		u, v := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
		if u == v {
			continue
		}
		if rng.IntN(2) == 0 {
			ix.Mutate([]graph.Edge{{Src: u, Dst: v}}, nil)
			o.add(u, v)
		} else {
			ix.Mutate(nil, []graph.Edge{{Src: u, Dst: v}})
			o.remove(u, v)
		}
	}
	preStats := ix.Stats()
	var published *Index
	var publishedEdges int
	next, err := ix.Compact(func(nx *Index, ng *graph.Graph) error {
		published, publishedEdges = nx, ng.NumEdges()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if published != next {
		t.Fatal("publish callback saw a different index than Compact returned")
	}
	st := next.Stats()
	if st.DeltaAdded != 0 || st.DeltaRemoved != 0 {
		t.Errorf("compacted index still carries deltas: %+v", st)
	}
	if st.BaseEdges != publishedEdges || st.LiveEdges != preStats.LiveEdges {
		t.Errorf("edge accounting: %+v vs pre %+v", st, preStats)
	}
	if st.Compactions != preStats.Compactions+1 || st.EdgesAdded != preStats.EdgesAdded {
		t.Errorf("counters not inherited: %+v vs %+v", st, preStats)
	}
	checkAllPairs(t, next, o, k, "post-compact")
	// Old index is retired: mutations bounce, queries still work.
	if !ix.Retired() {
		t.Error("old index not retired after publish")
	}
	if _, err := ix.Mutate([]graph.Edge{{Src: 0, Dst: 1}}, nil); !errors.Is(err, ErrRetired) {
		t.Errorf("mutation on retired index: err = %v, want ErrRetired", err)
	}
	if _, err := ix.Compact(nil); !errors.Is(err, ErrRetired) {
		t.Errorf("compact on retired index: err = %v, want ErrRetired", err)
	}
	// The successor keeps accepting mutations.
	if _, err := next.Mutate([]graph.Edge{{Src: 0, Dst: 1}}, nil); err != nil {
		t.Errorf("mutation on successor: %v", err)
	}
}

func TestCompactPublishErrorKeepsServing(t *testing.T) {
	ix := mustNew(t, path5(), 3)
	wantErr := errors.New("swap rejected")
	if _, err := ix.Compact(func(*Index, *graph.Graph) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want publish error", err)
	}
	if ix.Retired() {
		t.Error("index retired although publish failed")
	}
	if _, err := ix.Mutate([]graph.Edge{{Src: 4, Dst: 0}}, nil); err != nil {
		t.Errorf("mutation after failed compact: %v", err)
	}
}

func TestShouldCompactRatio(t *testing.T) {
	g := path5() // 4 base edges
	ix, err := New(g, Options{K: 2, CompactRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ix.ShouldCompact() {
		t.Error("fresh index wants compaction")
	}
	ix.Mutate([]graph.Edge{{Src: 4, Dst: 0}, {Src: 0, Dst: 2}}, nil) // delta 2/4 = 0.5
	if !ix.ShouldCompact() {
		t.Error("delta ratio 0.5 did not trigger ShouldCompact")
	}
}

// TestReachBatchMatchesReach runs a mutation stream through a mutable index
// and, after every batch, answers pairs drawn around the vertices the stream
// touched with ReachBatch at parallelism 1, 2 and 7, against scalar Reach
// and the k-hop BFS oracle on the materialized graph. The stream promotes
// enough vertices that cover ids outgrow the initial cover's Case-4 mask,
// dirties the neighbour lists of covered and uncovered endpoints, and
// removes base edges; the test asserts that every case of Algorithm 2 was
// hit with a dirty list and with a promoted id.
func TestReachBatchMatchesReach(t *testing.T) {
	const n, k, batches = 400, 3, 8
	ix, err := New(testgraph.Random(n, 700, 5), Options{K: k, Strategy: cover.DegreePrioritized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 0x777))
	initial := int32(len(ix.coverList))
	pastMask := int32(64 * bitvec.RowWords(int(initial))) // first id the initial mask cannot hold
	var hit [5]struct{ pairs, dirty, promoted int }
	for b := range batches {
		add, remove := reachBatchStream(ix, rng)
		if _, err := ix.Mutate(add, remove); err != nil {
			t.Fatal(err)
		}
		var touched []graph.Vertex
		for v := range graph.Vertex(n) {
			if ix.dg.ov.IsDirty(outSide, v) || ix.dg.ov.IsDirty(inSide, v) || ix.coverID[v] >= initial {
				touched = append(touched, v)
			}
		}
		pick := func() graph.Vertex {
			if rng.IntN(4) == 0 {
				return graph.Vertex(rng.IntN(n))
			}
			return touched[rng.IntN(len(touched))]
		}
		pairs := make([]core.Pair, 2048)
		var buf []graph.Vertex
		for i := range pairs {
			p := core.Pair{S: pick(), T: pick()}
			if i%3 == 0 { // a live walk of 1..k+1 steps, so that yes answers are common
				p.T = p.S
				for steps := 1 + rng.IntN(k+1); steps > 0; steps-- {
					if buf = ix.dg.AppendOutNeighbors(p.T, buf[:0]); len(buf) > 0 {
						p.T = buf[rng.IntN(len(buf))]
					}
				}
			}
			pairs[i] = p
			// Tally the case, whether a list that decides it is dirty, and
			// whether it probes a promoted id: an endpoint's row, or for
			// Case 4 an in-neighbour's id past the initial mask.
			c := ix.core.Classify(p.S, p.T)
			h := &hit[c]
			h.pairs++
			inDirty, outDirty := ix.dg.ov.IsDirty(inSide, p.T), ix.dg.ov.IsDirty(outSide, p.S)
			if c == core.Case2 && inDirty || c == core.Case3 && outDirty || c == core.Case4 && (inDirty || outDirty) {
				h.dirty++
			}
			if c != core.Case4 && max(ix.coverID[p.S], ix.coverID[p.T]) >= initial {
				h.promoted++
			}
			if c == core.Case4 && slices.ContainsFunc(ix.dg.AppendInNeighbors(p.T, buf[:0]), func(v graph.Vertex) bool { return ix.coverID[v] >= pastMask }) {
				h.promoted++
			}
		}
		checkBatch(t, ix, pairs, fmt.Sprintf("batch %d", b))
	}
	if ix.dg.Removed() == 0 {
		t.Error("the stream removed no base edge")
	}
	if got := int32(len(ix.coverList)); got <= pastMask {
		t.Errorf("cover grew %d → %d: no id past the initial mask's %d bits", initial, got, pastMask)
	}
	for c := core.Case1; c <= core.Case4; c++ {
		h := hit[c]
		t.Logf("%v: %d pairs, %d with a dirty list, %d with a promoted id", c, h.pairs, h.dirty, h.promoted)
		if h.pairs == 0 || h.promoted == 0 || (c != core.Case1 && h.dirty == 0) {
			t.Errorf("%v not hit as required: %+v", c, h)
		}
	}
}

// reachBatchStream draws one batch of TestReachBatchMatchesReach's stream:
// twelve joins of uncovered vertices (each promotes one), twelve edges
// between a cover vertex, often a promoted one, and an uncovered vertex in
// either direction (dirty lists, no promotion), and four removed base edges.
func reachBatchStream(ix *Index, rng *rand.Rand) (add, remove []graph.Edge) {
	free := uncovered(ix)
	cov := ix.coverList
	for range 12 {
		add = append(add, graph.Edge{Src: free[rng.IntN(len(free))], Dst: free[rng.IntN(len(free))]})
	}
	for i := range 12 {
		c := cov[len(cov)-1-rng.IntN(min(len(cov), 32))] // recent promotions first
		if i%2 == 0 {
			c = cov[rng.IntN(len(cov))]
		}
		e := graph.Edge{Src: c, Dst: free[rng.IntN(len(free))]}
		if i%3 == 0 {
			e.Src, e.Dst = e.Dst, e.Src
		}
		add = append(add, e)
	}
	base := ix.dg.Base()
	for len(remove) < 4 {
		u := graph.Vertex(rng.IntN(base.NumVertices()))
		if out := base.OutNeighbors(u); len(out) > 0 {
			remove = append(remove, graph.Edge{Src: u, Dst: out[rng.IntN(len(out))]})
		}
	}
	return add, remove
}

// checkBatch answers pairs with ReachBatch at parallelism 1, 2 and 7 and
// checks every answer against scalar Reach and graph.KHopReach on the
// materialized graph, and the returned epoch against the index's.
func checkBatch(t *testing.T, ix *Index, pairs []core.Pair, tag string) {
	t.Helper()
	live := ix.dg.Materialize()
	var bfs graph.BFS
	sc := core.NewQueryScratch()
	for _, par := range []int{1, 2, 7} {
		got, epoch, err := ix.ReachBatch(context.Background(), pairs, par)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != ix.Epoch() {
			t.Fatalf("%s: parallelism %d: batch epoch %d, index epoch %d", tag, par, epoch, ix.Epoch())
		}
		for i, p := range pairs {
			scalar, want := ix.Reach(p.S, p.T, sc), graph.KHopReach(live, p.S, p.T, ix.k, &bfs)
			if got[i] != want || scalar != want {
				t.Fatalf("%s: parallelism %d: pair %d (%d,%d, %v): batch %v, Reach %v, oracle %v",
					tag, par, i, p.S, p.T, ix.core.Classify(p.S, p.T), got[i], scalar, want)
			}
		}
	}
}

// TestNewMatchesReferenceRows checks the initial rows arc for arc against
// the single-threaded reference builder at several worker counts, and that a
// row rewritten past its slot in the shared slab leaves its neighbors alone.
func TestNewMatchesReferenceRows(t *testing.T) {
	g := testgraph.Random(300, 900, 23)
	for _, k := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 8} {
			ix, err := New(g, Options{K: k, Strategy: cover.DegreePrioritized, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := testgraph.ReferenceRows(g, ix.coverList, k)
			arcs := 0
			for u, row := range want {
				if len(ix.core.Row(int32(u))) != len(row) {
					t.Fatalf("k=%d workers=%d: row %d has %d arcs, reference %d", k, workers, u, len(ix.core.Row(int32(u))), len(row))
				}
				for i, a := range row {
					if got := ix.core.Row(int32(u))[i]; got.To() != a.To || got.W() != ix.bucketFor(a.Dist) {
						t.Fatalf("k=%d workers=%d: row %d arc %d is (%d, bucket %d), reference %+v", k, workers, u, i, got.To(), got.W(), a)
					}
				}
				arcs += len(row)
			}
			if ix.arcCount != arcs {
				t.Fatalf("k=%d workers=%d: arcCount %d, reference %d", k, workers, ix.arcCount, arcs)
			}
		}
	}

	// New edges out of the first cover vertex grow its row past its slot in
	// the slab; every other row must still answer as the oracle does.
	ix := mustNew(t, g, 2)
	was := len(ix.core.Row(0))
	u := ix.coverList[0]
	var add []graph.Edge
	for v := graph.Vertex(0); len(add) < 20; v++ {
		if v != u && !g.HasEdge(u, v) {
			add = append(add, graph.Edge{Src: u, Dst: v})
		}
	}
	if _, err := ix.Mutate(add, nil); err != nil {
		t.Fatal(err)
	}
	if len(ix.core.Row(0)) <= was {
		t.Fatalf("row 0 did not grow: %d arcs, was %d", len(ix.core.Row(0)), was)
	}
	o := newOracle(g)
	for _, e := range add {
		o.add(e.Src, e.Dst)
	}
	checkAllPairs(t, ix, o, 2, "after growing a slab row")
}

// TestCase4QueryDoesNotAllocate pins the query paths that read live
// adjacency — Case 4 (both endpoints outside the cover, in-neighbor ids
// sorted per query) and Cases 2 and 3 (one endpoint outside) — at zero
// allocations on a warm scratch. A batch is applied first, so some of the
// endpoints are dirty and take the merge path while the rest read the base
// CSR directly.
func TestCase4QueryDoesNotAllocate(t *testing.T) {
	g := testgraph.Random(200, 500, 5)
	ix := mustNew(t, g, 3)
	// Dirty some endpoints of every kind: edges between a cover vertex and
	// an uncovered one never promote, and one base edge is removed.
	var add []graph.Edge
	for v := graph.Vertex(0); int(v) < g.NumVertices() && len(add) < 20; v += 7 {
		c := ix.coverList[int(v)%len(ix.coverList)]
		if ix.coverID[v] < 0 && !g.HasEdge(c, v) && !g.HasEdge(v, c) {
			add = append(add, graph.Edge{Src: c, Dst: v}, graph.Edge{Src: v, Dst: c})
		}
	}
	remove := []graph.Edge{{Src: ix.coverList[0], Dst: g.OutNeighbors(ix.coverList[0])[0]}}
	if _, err := ix.Mutate(add, remove); err != nil {
		t.Fatal(err)
	}
	dirty := func(v graph.Vertex) bool {
		return ix.dg.ov.IsDirty(outSide, v) || ix.dg.ov.IsDirty(inSide, v)
	}
	cases := map[string]func(s, t graph.Vertex) bool{
		"case 2": func(s, t graph.Vertex) bool { return ix.coverID[s] >= 0 && ix.coverID[t] < 0 },
		"case 3": func(s, t graph.Vertex) bool { return ix.coverID[s] < 0 && ix.coverID[t] >= 0 },
		"case 4": func(s, t graph.Vertex) bool {
			return ix.coverID[s] < 0 && ix.coverID[t] < 0 && ix.dg.InDegree(t) > 1 && ix.dg.OutDegree(s) > 0
		},
	}
	for name, is := range cases {
		var pairs [][2]graph.Vertex
		dirtyPairs := 0
		for s := graph.Vertex(0); int(s) < g.NumVertices() && len(pairs) < 50; s++ {
			for dst := graph.Vertex(0); int(dst) < g.NumVertices(); dst++ {
				if s != dst && is(s, dst) {
					pairs = append(pairs, [2]graph.Vertex{s, dst})
					if dirty(s) || dirty(dst) {
						dirtyPairs++
					}
					break
				}
			}
		}
		if len(pairs) == 0 || dirtyPairs == 0 {
			t.Fatalf("%s: %d pairs, %d with a dirty endpoint, in the fixture", name, len(pairs), dirtyPairs)
		}
		sc := core.NewQueryScratch()
		query := func() {
			for _, p := range pairs {
				ix.Reach(p[0], p[1], sc)
			}
		}
		query() // warm the scratch buffers
		if allocs := testing.AllocsPerRun(20, query); allocs != 0 {
			t.Fatalf("%s queries allocate %.1f times per run on a warm scratch", name, allocs)
		}
	}
}

// TestSizeBytesCountsRows: SizeBytes must at least cover what the rows
// hold — a slice header per cover id plus every arc at its real size.
func TestSizeBytesCountsRows(t *testing.T) {
	g := testgraph.Lattice(2000, 3)
	ix := mustNew(t, g, 3)
	held := func() int {
		n := 0
		for u := range ix.coverList {
			row := ix.core.Row(int32(u))
			n += int(unsafe.Sizeof(row)) + cap(row)*int(unsafe.Sizeof(core.Arc(0)))
		}
		return n
	}
	if got, rows := ix.SizeBytes(), held(); got < rows {
		t.Fatalf("built index: SizeBytes %d < %d bytes held by rows", got, rows)
	}
	before := ix.SizeBytes()
	if _, err := ix.Mutate([]graph.Edge{{Src: 0, Dst: 1000}, {Src: 1000, Dst: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	if after := ix.SizeBytes(); after <= before {
		t.Fatalf("SizeBytes %d after a growing batch, %d before", after, before)
	}
}
