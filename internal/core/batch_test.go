package core_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"kreach/internal/core"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// allPairs enumerates every (s, t) of an n-vertex graph.
func allPairs(n int) []core.Pair {
	pairs := make([]core.Pair, 0, n*n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			pairs = append(pairs, core.Pair{S: graph.Vertex(s), T: graph.Vertex(t)})
		}
	}
	return pairs
}

func TestReachBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"random-k3", testgraph.Random(40, 150, 11), 3},
		{"random-unbounded", testgraph.Random(40, 150, 12), core.Unbounded},
		{"dag-k5", testgraph.RandomDAG(50, 200, 13), 5},
		{"path-k2", testgraph.Path(30), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := core.Build(tc.g, core.Options{K: tc.k, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			pairs := allPairs(tc.g.NumVertices())
			scratch := core.NewQueryScratch()
			want := make([]bool, len(pairs))
			for i, p := range pairs {
				want[i] = ix.Reach(p.S, p.T, scratch)
			}
			for _, par := range []int{0, 1, 2, 7} {
				got, err := ix.ReachBatch(context.Background(), pairs, par)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("parallelism %d: %d results for %d pairs", par, len(got), len(pairs))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("parallelism %d: pair %v = %v, want %v", par, pairs[i], got[i], want[i])
					}
				}
			}
		})
	}
}

func TestHKReachBatchMatchesSequential(t *testing.T) {
	g := testgraph.Random(40, 150, 21)
	ix, err := core.BuildHK(g, core.HKOptions{H: 2, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	pairs := allPairs(g.NumVertices())
	scratch := core.NewHKQueryScratch(ix)
	want := make([]bool, len(pairs))
	for i, p := range pairs {
		want[i] = ix.Reach(p.S, p.T, scratch)
	}
	for _, par := range []int{0, 1, 3} {
		got, err := ix.ReachBatch(context.Background(), pairs, par)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: pair %v = %v, want %v", par, pairs[i], got[i], want[i])
			}
		}
	}
}

func TestMultiReachBatchMatchesSequential(t *testing.T) {
	g := testgraph.Random(35, 120, 31)
	m, err := core.BuildMulti(g, core.PowerOfTwoKs(8), core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pairs := allPairs(g.NumVertices())
	for _, k := range []int{1, 2, 3, 5, 8, -1} {
		scratch := core.NewQueryScratch()
		want := make([]core.MultiResult, len(pairs))
		for i, p := range pairs {
			want[i] = m.Reach(p.S, p.T, k, scratch)
		}
		got, err := m.ReachBatch(context.Background(), pairs, k, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d pair %v = %+v, want %+v", k, pairs[i], got[i], want[i])
			}
		}
	}
}

// TestReachBatchConcurrentCallers exercises the batch path from many
// goroutines at once (meaningful under -race): batches share one index and
// run concurrently with plain Reach calls.
func TestReachBatchConcurrentCallers(t *testing.T) {
	g := testgraph.Random(60, 300, 41)
	ix, err := core.Build(g, core.Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := allPairs(g.NumVertices())
	scratch := core.NewQueryScratch()
	want := make([]bool, len(pairs))
	for i, p := range pairs {
		want[i] = ix.Reach(p.S, p.T, scratch)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(par int) {
			defer wg.Done()
			got, err := ix.ReachBatch(context.Background(), pairs, par)
			if err != nil {
				errs <- err.Error()
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- "batch result diverged under concurrency"
					return
				}
			}
			sc := core.NewQueryScratch()
			for i := 0; i < 100; i++ {
				if ix.Reach(pairs[i].S, pairs[i].T, sc) != want[i] {
					errs <- "single query diverged under concurrency"
					return
				}
			}
		}(c%4 + 1)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestReachBatchEmptyAndTiny(t *testing.T) {
	g := testgraph.Path(5)
	ix, err := core.Build(g, core.Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix.ReachBatch(context.Background(), nil, 8); err != nil || len(got) != 0 {
		t.Fatalf("empty batch returned %d results, err %v", len(got), err)
	}
	got, err := ix.ReachBatch(context.Background(), []core.Pair{{S: 0, T: 2}, {S: 0, T: 4}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] {
		t.Fatalf("tiny batch = %v, want [true false]", got)
	}
}

// TestReachBatchPreCancelled: a batch whose context is already done returns
// promptly with ctx.Err() and evaluates (essentially) nothing.
func TestReachBatchPreCancelled(t *testing.T) {
	g := testgraph.Random(40, 150, 51)
	ix, err := core.Build(g, core.Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		if _, err := ix.ReachBatch(ctx, allPairs(g.NumVertices()), par); err != context.Canceled {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestBatchEvalCancelMidFlight cancels while workers are mid-batch and
// checks both that BatchEval stops early (cooperative cancellation between
// pairs) and that every result written before the stop is intact. Items are
// no-ops, so three workers could drain the whole batch while the fourth is
// descheduled inside cancel(); past the 1000th evaluation every other
// worker therefore waits on a gate that opens once cancel() has returned.
func TestBatchEvalCancelMidFlight(t *testing.T) {
	const n = 1 << 16
	ctx, cancel := context.WithCancel(context.Background())
	out := make([]int32, n)
	var evaluated atomic.Int64
	cancelReturned := make(chan struct{})
	err := core.BatchEval(ctx, n, 4, func() struct{} { return struct{}{} }, func(lo, hi int, _ struct{}) {
		for i := lo; i < hi; i++ {
			out[i] = 1
			switch done := evaluated.Add(1); {
			case done == 1000:
				cancel()
				close(cancelReturned)
			case done > 1000:
				<-cancelReturned
			}
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := evaluated.Load(); got == n {
		t.Fatal("cancellation did not stop the batch early")
	} else if got < 1000 {
		t.Fatalf("evaluated %d pairs, want >= 1000", got)
	}
	// Every claimed index was evaluated exactly once: the written-slot count
	// must match the counter (a double-claimed chunk would overwrite slots
	// and leave fewer ones than increments).
	ones := 0
	for _, v := range out {
		ones += int(v)
	}
	if int64(ones) != evaluated.Load() {
		t.Fatalf("%d slots written for %d evaluations", ones, evaluated.Load())
	}
}

// TestBatchEvalNilDoneRunsToCompletion: an uncancellable context takes the
// fast path and evaluates everything.
func TestBatchEvalNilDoneRunsToCompletion(t *testing.T) {
	const n = 10_000
	var evaluated atomic.Int64
	err := core.BatchEval(context.Background(), n, 4, func() struct{} { return struct{}{} },
		func(lo, hi int, _ struct{}) { evaluated.Add(int64(hi - lo)) })
	if err != nil || evaluated.Load() != n {
		t.Fatalf("evaluated %d of %d, err %v", evaluated.Load(), n, err)
	}
}
