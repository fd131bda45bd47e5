package kreach_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kreach"
)

func TestPublicReachBatch(t *testing.T) {
	g := chain(12)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kreach.Pair
	for s := 0; s < 12; s++ {
		for tt := 0; tt < 12; tt++ {
			pairs = append(pairs, kreach.Pair{S: s, T: tt})
		}
	}
	for _, par := range []int{0, 1, 4} {
		got, err := ix.ReachBatch(context.Background(), pairs, kreach.BatchOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			want := ix.Reach(p.S, p.T)
			if (got[i].Verdict == kreach.Yes) != want {
				t.Fatalf("parallelism %d: pair %+v = %v, want %v", par, p, got[i].Verdict, want)
			}
			if got[i].EffectiveK != 3 {
				t.Fatalf("pair %+v effective k = %d, want 3", p, got[i].EffectiveK)
			}
		}
	}
}

func TestPublicReachBatchPanicsOutOfRange(t *testing.T) {
	g := chain(4)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range pair did not panic")
		}
	}()
	ix.ReachBatch(context.Background(), []kreach.Pair{{S: 0, T: 4}}, kreach.BatchOptions{Parallelism: 1}) //nolint:errcheck // panics first
}

func TestPublicHKAndMultiReachBatch(t *testing.T) {
	ctx := context.Background()
	g := chain(10)
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.PowerOfTwoRungs(8)})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kreach.Pair
	for s := 0; s < 10; s++ {
		for tt := 0; tt < 10; tt++ {
			pairs = append(pairs, kreach.Pair{S: s, T: tt})
		}
	}
	hkGot, err := hk.ReachBatch(ctx, pairs, kreach.BatchOptions{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if want := hk.Reach(p.S, p.T); (hkGot[i].Verdict == kreach.Yes) != want {
			t.Fatalf("hk pair %+v = %v, want %v", p, hkGot[i].Verdict, want)
		}
	}
	for _, k := range []int{1, 3, -1} {
		got, err := multi.ReachBatch(ctx, pairs, kreach.BatchOptions{K: k, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			verdict, effK := multi.Reach(p.S, p.T, k)
			if got[i].Verdict != verdict {
				t.Fatalf("multi k=%d pair %+v = %+v, want %v", k, p, got[i], verdict)
			}
			if verdict == kreach.YesWithin && got[i].EffectiveK != effK {
				t.Fatalf("multi k=%d pair %+v effective %d, want %d", k, p, got[i].EffectiveK, effK)
			}
		}
	}
}

// TestReachBatchKMismatch: fixed-k Reachers refuse bounds they cannot
// answer, with the typed error, before doing any work.
func TestReachBatchKMismatch(t *testing.T) {
	ctx := context.Background()
	g := chain(8)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []kreach.Pair{{S: 0, T: 1}}
	if _, err := ix.ReachBatch(ctx, pairs, kreach.BatchOptions{K: 5}); !errors.Is(err, kreach.ErrKMismatch) {
		t.Fatalf("batch k=5 on k=3 index: err = %v, want ErrKMismatch", err)
	}
	var mismatch *kreach.KMismatchError
	_, _, err = ix.ReachK(ctx, 0, 1, 5)
	if !errors.As(err, &mismatch) || mismatch.IndexK != 3 || mismatch.QueryK != 5 {
		t.Fatalf("ReachK mismatch error = %v (%+v)", err, mismatch)
	}
	// Matching and native bounds are accepted.
	for _, k := range []int{kreach.UseIndexK, 3} {
		if _, _, err := ix.ReachK(ctx, 0, 1, k); err != nil {
			t.Fatalf("k=%d rejected: %v", k, err)
		}
	}
	// The ladder accepts anything.
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.ExactRungs(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{kreach.UseIndexK, 1, 3, 7, -1, 100} {
		if _, _, err := multi.ReachK(ctx, 0, 1, k); err != nil {
			t.Fatalf("multi k=%d rejected: %v", k, err)
		}
	}
	// Any negative bound means classic reachability, so an Unbounded index
	// answers every negative k — not just the Unbounded sentinel itself.
	classic, err := kreach.BuildIndex(g, kreach.IndexOptions{K: kreach.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{kreach.UseIndexK, kreach.Unbounded, -2, -100} {
		v, effK, err := classic.ReachK(ctx, 0, 7, k)
		if err != nil || v != kreach.Yes || effK != kreach.Unbounded {
			t.Fatalf("classic index k=%d: (%v, %d, %v), want (yes, Unbounded, nil)", k, v, effK, err)
		}
	}
	// ...while a finite fixed-k index still rejects a classic request.
	if _, _, err := ix.ReachK(ctx, 0, 1, -1); !errors.Is(err, kreach.ErrKMismatch) {
		t.Fatalf("classic request on k=3 index: err = %v, want ErrKMismatch", err)
	}
}

// TestReachBatchPreCancelledPublic: every Reacher variant returns promptly
// with ctx.Err() when handed an already-cancelled context — the library
// half of the serving layer's deadline-propagation contract.
func TestReachBatchPreCancelledPublic(t *testing.T) {
	g := chain(30)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.PowerOfTwoRungs(8)})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kreach.Pair
	for s := 0; s < 30; s++ {
		for tt := 0; tt < 30; tt++ {
			pairs = append(pairs, kreach.Pair{S: s, T: tt})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		r    kreach.Reacher
	}{
		{"plain", plain}, {"hk", hk}, {"multi", multi}, {"dynamic", dyn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := tc.r.ReachBatch(ctx, pairs, kreach.BatchOptions{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("cancelled batch took %v", elapsed)
			}
			if _, _, err := tc.r.ReachK(ctx, 0, 1, kreach.UseIndexK); !errors.Is(err, context.Canceled) {
				t.Fatalf("ReachK err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestPublicReachBatchConcurrent runs overlapping batches through one index
// from many goroutines; meaningful under -race.
func TestPublicReachBatchConcurrent(t *testing.T) {
	g := chain(50)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kreach.Pair
	for s := 0; s < 50; s++ {
		for tt := 0; tt < 50; tt += 2 {
			pairs = append(pairs, kreach.Pair{S: s, T: tt})
		}
	}
	want, err := ix.ReachBatch(context.Background(), pairs, kreach.BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	fail := make(chan struct{}, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(par int) {
			defer wg.Done()
			got, err := ix.ReachBatch(context.Background(), pairs, kreach.BatchOptions{Parallelism: par})
			if err != nil {
				fail <- struct{}{}
				return
			}
			for i := range got {
				if got[i] != want[i] {
					fail <- struct{}{}
					return
				}
			}
		}(c%4 + 1)
	}
	wg.Wait()
	close(fail)
	if _, bad := <-fail; bad {
		t.Fatal("concurrent batches diverged")
	}
}
