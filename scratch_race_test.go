package kreach_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"kreach"
)

// TestScratchPoolConcurrentNoContamination hammers ReachFrom/ReachInto,
// scalar ReachK and ReachBatch concurrently across all four index variants
// and checks every result against ground truth computed up front. The
// enumeration path recycles pooled EnumScratch state — the BFS engine's
// visited bitmap and visit order among it — between queries, a scalar
// probe borrows pooled query scratch on Case 4 (its cover-id mask) and on
// every (h,k) expansion, and the batch path shares one
// QueryScratch per worker; under -race this test catches unsynchronized
// pool use directly, and the oracle comparison catches the subtler failure
// where a recycled scratch leaks state from a previous query (wrong
// membership or buckets, a mask returned with bits still set) without any
// racy access.
func TestScratchPoolConcurrentNoContamination(t *testing.T) {
	const (
		n, m, k  = 80, 320, 3
		hammerGs = 2  // goroutines per variant
		iters    = 25 // query rounds per goroutine
	)
	g := randomPublicGraph(n, m, 7)
	ctx := context.Background()

	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: k})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.ExactRungs(4), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		name    string
		enum    kreach.NeighborEnumerator
		reacher kreach.Reacher
	}
	variants := []variant{
		{"plain", plain, plain},
		{"hk", hk, hk},
		{"multi", multi, multi},
		{"dynamic", dyn, dyn},
	}

	// Ground truth, computed before any concurrency: per-source oracle
	// balls in both directions, and per-variant sequential batch verdicts
	// (the variants legitimately disagree with each other — hk answers
	// (1,k)-reach — so each is compared only against itself; scalar ReachK
	// must give the same verdicts).
	fwd := make([]map[int]kreach.DistBucket, n)
	bwd := make([]map[int]kreach.DistBucket, n)
	for v := 0; v < n; v++ {
		fwd[v] = publicOracleBall(g, v, k, true)
		bwd[v] = publicOracleBall(g, v, k, false)
	}
	var pairs []kreach.Pair
	for s := 0; s < n; s += 3 {
		for d := 1; d < n; d += 7 {
			pairs = append(pairs, kreach.Pair{S: s, T: (s + d) % n})
		}
	}
	wantBatch := make([][]kreach.BatchVerdict, len(variants))
	for i, va := range variants {
		want, err := va.reacher.ReachBatch(ctx, pairs, kreach.BatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantBatch[i] = want
	}

	// diffBall mirrors checkBall but reports with Errorf: t.Fatal must not
	// be called from non-test goroutines.
	diffBall := func(label string, b *kreach.Ball, want map[int]kreach.DistBucket) error {
		if b.Total != len(want) || len(b.Neighbors) != len(want) {
			return fmt.Errorf("%s: total=%d len=%d, oracle %d", label, b.Total, len(b.Neighbors), len(want))
		}
		for _, nb := range b.Neighbors {
			wb, ok := want[nb.ID]
			if !ok || wb != nb.Bucket {
				return fmt.Errorf("%s: member %d bucket %v, oracle (%v, present=%v)", label, nb.ID, nb.Bucket, wb, ok)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(variants)*hammerGs)
	for vi, va := range variants {
		for gi := 0; gi < hammerGs; gi++ {
			wg.Add(1)
			go func(vi int, va variant, seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, 0x5c4a7c4))
				for it := 0; it < iters; it++ {
					src := rng.IntN(n)
					from, err := va.enum.ReachFrom(ctx, src, k, kreach.EnumOptions{})
					if err != nil {
						errc <- err
						return
					}
					if err := diffBall(fmt.Sprintf("%s ReachFrom src=%d", va.name, src), from, fwd[src]); err != nil {
						errc <- err
						return
					}
					dst := rng.IntN(n)
					into, err := va.enum.ReachInto(ctx, dst, k, kreach.EnumOptions{})
					if err != nil {
						errc <- err
						return
					}
					if err := diffBall(fmt.Sprintf("%s ReachInto t=%d", va.name, dst), into, bwd[dst]); err != nil {
						errc <- err
						return
					}
					for i, p := range pairs {
						v, effK, err := va.reacher.ReachK(ctx, p.S, p.T, kreach.UseIndexK)
						if err != nil {
							errc <- err
							return
						}
						if got := (kreach.BatchVerdict{Verdict: v, EffectiveK: effK}); got != wantBatch[vi][i] {
							errc <- fmt.Errorf("%s ReachK pair %+v = %+v, sequential batch said %+v",
								va.name, p, got, wantBatch[vi][i])
							return
						}
					}
					got, err := va.reacher.ReachBatch(ctx, pairs, kreach.BatchOptions{Parallelism: 1 + it%4})
					if err != nil {
						errc <- err
						return
					}
					for i := range got {
						if got[i] != wantBatch[vi][i] {
							errc <- fmt.Errorf("%s batch pair %+v = %+v, sequential said %+v",
								va.name, pairs[i], got[i], wantBatch[vi][i])
							return
						}
					}
				}
			}(vi, va, uint64(vi*hammerGs+gi+1))
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
