package dynamic

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
)

// TestMutationSoak is the acceptance soak: ≥ 10k interleaved add / remove /
// query operations on a generated graph, where every Reach answer — through
// the overlay after incremental maintenance, and across compactions — must
// match a k-bounded BFS oracle on the current edge set. A background reader
// hammers the index concurrently so the run is meaningful under -race.
func TestMutationSoak(t *testing.T) {
	const (
		n    = 200
		k    = 3
		ops  = 12_000
		seed = 0x50a4
	)
	rng := rand.New(rand.NewPCG(seed, 0x11))
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			b.AddEdge(graph.Vertex(u), graph.Vertex(v))
		}
	}
	g := b.Build()
	ix, err := New(g, Options{K: k, Strategy: cover.DegreePrioritized, Seed: 1, CompactRatio: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	// Track the live edge list for removal sampling.
	edges := g.Edges()
	edgePos := make(map[graph.Edge]int, len(edges))
	for i, e := range edges {
		edgePos[e] = i
	}
	addEdge := func(e graph.Edge) {
		edgePos[e] = len(edges)
		edges = append(edges, e)
		o.add(e.Src, e.Dst)
	}
	removeEdge := func(e graph.Edge) {
		i := edgePos[e]
		last := len(edges) - 1
		edges[i] = edges[last]
		edgePos[edges[i]] = i
		edges = edges[:last]
		delete(edgePos, e)
		o.remove(e.Src, e.Dst)
	}

	// Compaction handoff: mid-soak compactions publish the successor here
	// so the background readers can follow the swap.
	var curMu sync.Mutex
	var published *Index
	currentIndex := func(fallback *Index) *Index {
		curMu.Lock()
		defer curMu.Unlock()
		if published != nil {
			return published
		}
		return fallback
	}

	// Background readers: answers are checked for data races, not values
	// (they race benignly with mutations by design).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(100+w)))
			sc := core.NewQueryScratch()
			cur := ix
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur.Reach(graph.Vertex(r.IntN(n)), graph.Vertex(r.IntN(n)), sc)
				// Pick up the successor after a compaction.
				if cur.Retired() {
					cur = currentIndex(cur)
				}
			}
		}(w)
	}

	sc := core.NewQueryScratch()
	checked, flips := 0, 0
	prev := false
	for op := 0; op < ops; op++ {
		switch r := rng.IntN(10); {
		case r < 4: // query
			s, d := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
			got := ix.Reach(s, d, sc)
			want := o.reach(s, d, k)
			if got != want {
				t.Fatalf("op %d: Reach(%d,%d) = %v, oracle says %v", op, s, d, got, want)
			}
			checked++
			if got != prev {
				flips++
			}
			prev = got
		case r < 7: // add a random non-edge
			e := graph.Edge{Src: graph.Vertex(rng.IntN(n)), Dst: graph.Vertex(rng.IntN(n))}
			if e.Src == e.Dst {
				continue
			}
			res, err := ix.Mutate([]graph.Edge{e}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Added == 1 {
				addEdge(e)
			}
		default: // remove a random existing edge
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.IntN(len(edges))]
			res, err := ix.Mutate(nil, []graph.Edge{e})
			if err != nil {
				t.Fatal(err)
			}
			if res.Removed != 1 {
				t.Fatalf("op %d: removal of live edge %v not applied: %+v", op, e, res)
			}
			removeEdge(e)
		}

		// Periodic compaction mid-soak: answers must survive the swap.
		if op > 0 && op%3000 == 0 {
			next, err := ix.Compact(func(nx *Index, _ *graph.Graph) error {
				curMu.Lock()
				published = nx
				curMu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("op %d: compact: %v", op, err)
			}
			ix = next
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("op %d post-compact: %v", op, err)
			}
			// Spot-check a pair sample against the oracle on the fresh CSR.
			for i := 0; i < 200; i++ {
				s, d := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
				if got, want := ix.Reach(s, d, sc), o.reach(s, d, k); got != want {
					t.Fatalf("op %d post-compact: Reach(%d,%d) = %v, want %v", op, s, d, got, want)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if checked < ops/4 {
		t.Fatalf("only %d queries checked", checked)
	}
	if flips == 0 {
		t.Error("soak never observed an answer flip; mutation mix is degenerate")
	}
	st := ix.Stats()
	if st.Compactions == 0 || st.MutationBatches == 0 {
		t.Errorf("stats claim no work happened: %+v", st)
	}
	t.Logf("soak: %d ops, %d checked queries, stats %+v", ops, checked, st)
}

// TestConcurrentMutateAndQuery drives mutations and queries from many
// goroutines at once; value correctness is covered by the soak, this run
// exists to let -race inspect the locking — including the parallel row
// repair, which one writer's wide batches take while readers wait.
func TestConcurrentMutateAndQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0x33))
	const n = 400
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n)))
	}
	ix, err := New(b.Build(), Options{K: 3, Seed: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewPCG(99, 0x45))
		for i := 0; i < 20; i++ {
			var add, remove []graph.Edge
			for j := 0; j < 32; j++ {
				e := graph.Edge{Src: graph.Vertex(r.IntN(n)), Dst: graph.Vertex(r.IntN(n))}
				if j%4 == 0 {
					remove = append(remove, e)
				} else {
					add = append(add, e)
				}
			}
			ix.Mutate(add, remove)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 0x44))
			sc := core.NewQueryScratch()
			for i := 0; i < 400; i++ {
				switch r.IntN(4) {
				case 0:
					ix.Mutate([]graph.Edge{{Src: graph.Vertex(r.IntN(n)), Dst: graph.Vertex(r.IntN(n))}}, nil)
				case 1:
					ix.Mutate(nil, []graph.Edge{{Src: graph.Vertex(r.IntN(n)), Dst: graph.Vertex(r.IntN(n))}})
				default:
					ix.Reach(graph.Vertex(r.IntN(n)), graph.Vertex(r.IntN(n)), sc)
				}
			}
		}(w)
	}
	// A concurrent batch reader exercises ReachBatch's pool under -race.
	pairs := make([]core.Pair, 512)
	for i := range pairs {
		pairs[i] = core.Pair{S: graph.Vertex(rng.IntN(n)), T: graph.Vertex(rng.IntN(n))}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ix.ReachBatch(context.Background(), pairs, 0) //nolint:errcheck // background ctx never cancels
			ix.SizeBytes()
		}
	}()
	wg.Wait()
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.MutationBatches == 0 {
		t.Error("no mutations landed")
	}
	if len(ix.scratches) < 2 {
		t.Error("no batch took the parallel repair path")
	}
}
