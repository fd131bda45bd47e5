package dynamic

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"kreach/internal/core"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/workload"
)

// liveOracleBall computes the ball by BFS over an explicit adjacency map —
// independent of both the CSR and the overlay implementations.
func liveOracleBall(out map[graph.Vertex]map[graph.Vertex]bool, n int, src graph.Vertex, k int, forward bool) map[graph.Vertex]core.DistBucket {
	// For backward balls, transpose on the fly.
	adj := func(v graph.Vertex, yield func(graph.Vertex)) {
		if forward {
			for w := range out[v] {
				yield(w)
			}
		} else {
			for u, ws := range out {
				if ws[v] {
					yield(u)
				}
			}
		}
	}
	type qe struct {
		v graph.Vertex
		d int
	}
	dist := map[graph.Vertex]int{src: 0}
	queue := []qe{{src, 0}}
	for head := 0; head < len(queue); head++ {
		e := queue[head]
		if e.d >= k {
			continue
		}
		adj(e.v, func(w graph.Vertex) {
			if _, ok := dist[w]; !ok {
				dist[w] = e.d + 1
				queue = append(queue, qe{w, e.d + 1})
			}
		})
	}
	ball := make(map[graph.Vertex]core.DistBucket)
	for v, d := range dist {
		if v == src {
			continue
		}
		b := core.BucketWithin
		if d == k {
			b = core.BucketFrontier
		}
		ball[v] = b
	}
	_ = n
	return ball
}

// edgeSetCopy snapshots a MutationStream-style adjacency map.
func edgeSetCopy(edges []graph.Edge) map[graph.Vertex]map[graph.Vertex]bool {
	out := make(map[graph.Vertex]map[graph.Vertex]bool)
	for _, e := range edges {
		if out[e.Src] == nil {
			out[e.Src] = make(map[graph.Vertex]bool)
		}
		out[e.Src][e.Dst] = true
	}
	return out
}

func assertBall(t *testing.T, label string, got []core.Neighbor, want map[graph.Vertex]core.DistBucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d members, oracle %d", label, len(got), len(want))
	}
	for _, nb := range got {
		wb, ok := want[nb.V]
		if !ok {
			t.Fatalf("%s: spurious member %d", label, nb.V)
		}
		if nb.Bucket != wb {
			t.Fatalf("%s: member %d bucket %v, oracle %v", label, nb.V, nb.Bucket, wb)
		}
	}
}

// TestEnumerateTracksMutations interleaves mutation batches with
// enumerations, checking the ball against an oracle on the live edge set
// after every batch.
func TestEnumerateTracksMutations(t *testing.T) {
	base := testgraph.Random(40, 100, 21)
	const k = 3
	ix, err := New(base, Options{K: k, Seed: 1, CompactRatio: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewMutationStream(base, 99, workload.MutationMix{Query: 0.2, Add: 0.4, Remove: 0.4})
	sc := core.NewEnumScratch()
	edges := base.Edges()
	live := edgeSetCopy(edges)
	apply := func(op workload.Op) {
		switch op.Kind {
		case workload.OpAdd:
			if _, err := ix.Mutate([]graph.Edge{{Src: op.U, Dst: op.V}}, nil); err != nil {
				t.Fatal(err)
			}
			if live[op.U] == nil {
				live[op.U] = make(map[graph.Vertex]bool)
			}
			live[op.U][op.V] = true
		case workload.OpRemove:
			if _, err := ix.Mutate(nil, []graph.Edge{{Src: op.U, Dst: op.V}}); err != nil {
				t.Fatal(err)
			}
			delete(live[op.U], op.V)
		}
	}
	for i := 0; i < 300; i++ {
		op := stream.Next()
		apply(op)
		if i%10 != 0 {
			continue
		}
		src := graph.Vertex(i % 40)
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			got, _, _, err := ix.Enumerate(context.Background(), src, core.EnumOptions{Direction: dir}, sc)
			if err != nil {
				t.Fatal(err)
			}
			assertBall(t, fmt.Sprintf("op %d src %d dir %v", i, src, dir), got,
				liveOracleBall(live, 40, src, k, dir == graph.Forward))
		}
	}
}

// TestEnumerateDuringMutationSoak is the race-enabled concurrency proof:
// readers enumerate balls while a mutation soak runs, and every ball whose
// surrounding epoch reads agree is validated against the oracle snapshot
// recorded for that epoch. Enumeration holds the read lock for the whole
// traversal, so an unchanged epoch across the call proves the ball saw
// exactly that snapshot.
func TestEnumerateDuringMutationSoak(t *testing.T) {
	base := testgraph.Random(32, 90, 77)
	const k = 2
	ix, err := New(base, Options{K: k, Seed: 2, CompactRatio: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		live map[graph.Vertex]map[graph.Vertex]bool
	}
	var (
		mu    sync.Mutex
		snaps = map[uint64]*snapshot{}
	)
	record := func(epoch uint64, edges []graph.Edge) {
		mu.Lock()
		snaps[epoch] = &snapshot{live: edgeSetCopy(edges)}
		mu.Unlock()
	}
	record(ix.Epoch(), base.Edges())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutation soak
		defer wg.Done()
		stream := workload.NewMutationStream(base, 5, workload.MutationMix{Add: 0.5, Remove: 0.5})
		edges := append([]graph.Edge(nil), base.Edges()...)
		for i := 0; i < 400; i++ {
			op := stream.Next()
			var res MutationResult
			var err error
			switch op.Kind {
			case workload.OpAdd:
				res, err = ix.Mutate([]graph.Edge{{Src: op.U, Dst: op.V}}, nil)
				edges = append(edges, graph.Edge{Src: op.U, Dst: op.V})
			case workload.OpRemove:
				res, err = ix.Mutate(nil, []graph.Edge{{Src: op.U, Dst: op.V}})
				for j, e := range edges {
					if e.Src == op.U && e.Dst == op.V {
						edges[j] = edges[len(edges)-1]
						edges = edges[:len(edges)-1]
						break
					}
				}
			default:
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			record(res.Epoch, edges)
		}
	}()

	const readers = 4
	validated := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sc := core.NewEnumScratch()
			for i := 0; i < 300; i++ {
				src := graph.Vertex((i*7 + r) % 32)
				dir := graph.Direction(i % 2)
				e1 := ix.Epoch()
				got, _, _, err := ix.Enumerate(context.Background(), src, core.EnumOptions{Direction: dir}, sc)
				if err != nil {
					t.Error(err)
					return
				}
				if e2 := ix.Epoch(); e1 != e2 {
					continue // a batch landed around the call; no snapshot claim
				}
				mu.Lock()
				snap := snaps[e1]
				mu.Unlock()
				if snap == nil {
					continue // epoch issued but snapshot not yet recorded
				}
				want := liveOracleBall(snap.live, 32, src, k, dir == graph.Forward)
				if len(got) != len(want) {
					t.Errorf("reader %d epoch %d src %d: %d members, oracle %d", r, e1, src, len(got), len(want))
					return
				}
				for _, nb := range got {
					if wb, ok := want[nb.V]; !ok || wb != nb.Bucket {
						t.Errorf("reader %d epoch %d src %d: member %d bucket %v oracle (%v,%v)",
							r, e1, src, nb.V, nb.Bucket, wb, ok)
						return
					}
				}
				validated[r]++
			}
		}(r)
	}
	wg.Wait()
	total := 0
	for _, v := range validated {
		total += v
	}
	if total == 0 {
		t.Fatal("no enumeration was validated against a stable epoch snapshot")
	}
}
