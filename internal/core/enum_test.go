package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// oracleBall computes the k-hop ball around src by direct BFS: the ground
// truth Enumerate must match, with buckets derived from exact distances.
func oracleBall(g *graph.Graph, src graph.Vertex, k int, dir graph.Direction) map[graph.Vertex]DistBucket {
	out := make(map[graph.Vertex]DistBucket)
	for v, d := range graph.BFSDistances(g, src, dir) {
		if d <= 0 || (k >= 0 && int(d) > k) {
			continue // unreachable, the source itself, or beyond the bound
		}
		b := BucketWithin
		if int(d) == k {
			b = BucketFrontier
		}
		out[graph.Vertex(v)] = b
	}
	return out
}

func ballsEqual(t *testing.T, label string, got []Neighbor, want map[graph.Vertex]DistBucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d members, oracle has %d", label, len(got), len(want))
	}
	seen := make(map[graph.Vertex]bool, len(got))
	for _, nb := range got {
		if seen[nb.V] {
			t.Fatalf("%s: duplicate member %d", label, nb.V)
		}
		seen[nb.V] = true
		wb, ok := want[nb.V]
		if !ok {
			t.Fatalf("%s: spurious member %d", label, nb.V)
		}
		if nb.Bucket != wb {
			t.Fatalf("%s: member %d bucket %v, oracle %v", label, nb.V, nb.Bucket, wb)
		}
	}
}

// TestEnumerateAgainstOracle sweeps random graphs × k (finite and
// Unbounded) × directions, checking every source — covering both the
// accelerated cover path and the BFS fallback on the same graphs.
func TestEnumerateAgainstOracle(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{12, 40} {
		for trial := 0; trial < 4; trial++ {
			g := testgraph.Random(n, 3*n, uint64(100*n+trial))
			for _, k := range []int{1, 2, 3, 5, Unbounded} {
				ix, err := Build(g, Options{K: k, Strategy: cover.DegreePrioritized, Seed: uint64(trial)})
				if err != nil {
					t.Fatal(err)
				}
				sc := NewEnumScratch()
				for v := 0; v < n; v++ {
					src := graph.Vertex(v)
					for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
						got, total, err := ix.Enumerate(ctx, src, EnumOptions{Direction: dir}, sc)
						if err != nil {
							t.Fatal(err)
						}
						if total != len(got) {
							t.Fatalf("total %d != len %d without Limit", total, len(got))
						}
						label := fmt.Sprintf("n=%d trial=%d k=%d src=%d dir=%v cover=%v",
							n, trial, k, v, dir, ix.InCover(src))
						ballsEqual(t, label, got, oracleBall(g, src, k, dir))
					}
				}
			}
		}
	}
}

// TestEnumeratePaperExample pins the worked Figure 1 graph: the 2-hop ball
// of b and the frontier classification around it.
func TestEnumeratePaperExample(t *testing.T) {
	g := testgraph.PaperFigure1()
	ix, err := Build(g, Options{K: 2, Strategy: cover.DegreePrioritized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Enumerate(context.Background(), testgraph.B,
		EnumOptions{Direction: graph.Forward, SortByDistance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// b→d (1), d→e,f (2): ball = {d within, e frontier, f frontier}.
	want := []Neighbor{
		{V: testgraph.D, Bucket: BucketWithin},
		{V: testgraph.E, Bucket: BucketFrontier},
		{V: testgraph.F, Bucket: BucketFrontier},
	}
	if len(got) != len(want) {
		t.Fatalf("ball %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ball[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEnumerateHKAgainstOracle(t *testing.T) {
	ctx := context.Background()
	g := testgraph.Random(40, 120, 7)
	for _, hk := range []struct{ h, k int }{{1, 3}, {1, 4}, {2, 6}} {
		ix, err := BuildHK(g, HKOptions{H: hk.h, K: hk.k})
		if err != nil {
			t.Fatal(err)
		}
		sc := NewEnumScratch()
		for v := 0; v < 40; v++ {
			for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
				got, _, err := ix.Enumerate(ctx, graph.Vertex(v), EnumOptions{Direction: dir}, sc)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("(h,k)=(%d,%d) src=%d dir=%v", hk.h, hk.k, v, dir)
				ballsEqual(t, label, got, oracleBall(g, graph.Vertex(v), hk.k, dir))
			}
		}
	}
}

func TestEnumerateMultiAgainstOracle(t *testing.T) {
	ctx := context.Background()
	g := testgraph.Random(40, 120, 11)
	m, err := BuildMulti(g, PowerOfTwoKs(8), Options{Strategy: cover.DegreePrioritized, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewEnumScratch()
	// Rung hits (2, 4, 8), between-rung bounds (1, 3, 5) and classic (-1).
	for _, k := range []int{1, 2, 3, 4, 5, 8, Unbounded} {
		for v := 0; v < 40; v += 3 {
			got, _, err := m.Enumerate(ctx, graph.Vertex(v), k, EnumOptions{Direction: graph.Forward}, sc)
			if err != nil {
				t.Fatal(err)
			}
			ballsEqual(t, fmt.Sprintf("multi k=%d src=%d", k, v), got,
				oracleBall(g, graph.Vertex(v), k, graph.Forward))
		}
	}
}

func TestEnumerateSortAndLimit(t *testing.T) {
	g := testgraph.Random(60, 240, 5)
	ix, err := Build(g, Options{K: 3, Strategy: cover.DegreePrioritized, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, total, err := ix.Enumerate(context.Background(), 0,
		EnumOptions{Direction: graph.Forward, SortByDistance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(full) {
		t.Fatalf("total %d != len %d", total, len(full))
	}
	for i := 1; i < len(full); i++ {
		prev, cur := full[i-1], full[i]
		if prev.Bucket > cur.Bucket || (prev.Bucket == cur.Bucket && prev.V >= cur.V) {
			t.Fatalf("not sorted at %d: %v then %v", i, prev, cur)
		}
	}
	if len(full) > 2 {
		lim, ltotal, err := ix.Enumerate(context.Background(), 0,
			EnumOptions{Direction: graph.Forward, SortByDistance: true, Limit: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ltotal != total {
			t.Fatalf("limited total %d, want %d", ltotal, total)
		}
		if len(lim) != 2 || lim[0] != full[0] || lim[1] != full[1] {
			t.Fatalf("limited %v, want prefix of %v", lim, full[:2])
		}
	}
}

func TestEnumerateCancelled(t *testing.T) {
	g := testgraph.Random(50, 200, 9)
	ix, err := Build(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for v := 0; v < 50; v++ {
		if _, _, err := ix.Enumerate(ctx, graph.Vertex(v), EnumOptions{Direction: graph.Forward}, nil); err == nil {
			// A pre-cancelled context may still complete trivially small
			// balls (cancellation is polled between levels/phases); a
			// multi-level ball must surface the cancellation.
			if len(oracleBall(g, graph.Vertex(v), 4, graph.Forward)) > len(g.OutNeighbors(graph.Vertex(v)))+ix.Cover().Len() {
				t.Fatalf("src %d: large ball enumerated under cancelled ctx", v)
			}
		} else if err != context.Canceled {
			t.Fatalf("err %v, want context.Canceled", err)
		}
	}
}

// TestEnumerateScratchReuse runs many enumerations through one scratch in
// random order, ensuring the visited bitmap never leaks state.
func TestEnumerateScratchReuse(t *testing.T) {
	g := testgraph.Random(30, 90, 13)
	ix, err := Build(g, Options{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewEnumScratch()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		v := graph.Vertex(rng.IntN(30))
		dir := graph.Direction(rng.IntN(2))
		got, _, err := ix.Enumerate(context.Background(), v, EnumOptions{Direction: dir}, sc)
		if err != nil {
			t.Fatal(err)
		}
		ballsEqual(t, fmt.Sprintf("iter %d src %d", i, v), got, oracleBall(g, v, 2, dir))
	}
}
