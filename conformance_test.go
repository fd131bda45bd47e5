package kreach_test

// Cross-variant differential conformance suite: every Reacher variant —
// plain, (h,k), multi-rung ladder, and dynamic (including mid-mutation) —
// must agree with an independent BFS oracle on both the pairwise ReachK
// answer and the full ReachFrom/ReachInto neighborhood sets (membership
// AND distance buckets), across the synthetic dataset families × seeds ×
// k ∈ {1..4, Unbounded}. The oracle is workload.NeighborStream's direct
// bounded BFS plus graph.KHopReach, deliberately independent of all index
// code paths.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"kreach"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/wal"
	"kreach/internal/workload"
)

// conformanceKs is the hop-bound sweep. Unbounded exercises the n-reach
// variant (plain and the ladder's top rung).
var conformanceKs = []int{1, 2, 3, 4, kreach.Unbounded}

// conformanceSpecs picks one dataset per structural family, scaled far
// down so the whole sweep brute-forces in seconds.
func conformanceSpecs() []gen.Spec {
	var specs []gen.Spec
	for _, name := range []string{"AgroCyc", "aMaze", "CiteSeer", "Nasa", "YAGO"} {
		spec, ok := gen.Dataset(name)
		if !ok {
			panic("unknown conformance dataset " + name)
		}
		specs = append(specs, spec.Scaled(60))
	}
	return specs
}

// checkPairs asserts ReachK agreement with the BFS oracle on sampled pairs.
func checkPairs(t *testing.T, label string, r kreach.Reacher, g *graph.Graph, k int, seed uint64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0xc0f))
	sc := new(graph.BFS)
	n := g.NumVertices()
	for i := 0; i < 200; i++ {
		s, d := rng.IntN(n), rng.IntN(n)
		verdict, _, err := r.ReachK(ctx, s, d, k)
		if err != nil {
			t.Fatalf("%s: ReachK(%d,%d,%d): %v", label, s, d, k, err)
		}
		want := graph.KHopReach(g, graph.Vertex(s), graph.Vertex(d), k, sc)
		if got := verdict != kreach.No; got != want {
			t.Fatalf("%s: ReachK(%d,%d,%d) = %v (%v), oracle %v", label, s, d, k, got, verdict, want)
		}
	}
}

// checkBalls asserts ReachFrom/ReachInto agreement — membership and
// buckets — with the oracle on sampled sources.
func checkBalls(t *testing.T, label string, e kreach.NeighborEnumerator, oracle *workload.NeighborStream, n, k int, seed uint64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0xba11))
	for i := 0; i < 15; i++ {
		src := rng.IntN(n)
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			var ball *kreach.Ball
			var err error
			if dir == graph.Forward {
				ball, err = e.ReachFrom(ctx, src, k, kreach.EnumOptions{})
			} else {
				ball, err = e.ReachInto(ctx, src, k, kreach.EnumOptions{})
			}
			if err != nil {
				t.Fatalf("%s: enumerate src=%d dir=%v: %v", label, src, dir, err)
			}
			if !ball.Complete() || ball.Total != len(ball.Neighbors) {
				t.Fatalf("%s: src=%d dir=%v: incomplete unlimited ball %+v", label, src, dir, ball)
			}
			// Ball.K is the effective bound: equal to k for these fixed
			// sweeps (the ladder normalizes only k ≤ 0 and huge k).
			want := oracle.Ball(workload.NeighborQuery{Src: graph.Vertex(src), K: ball.K, Dir: dir})
			if len(want) != len(ball.Neighbors) {
				t.Fatalf("%s: src=%d dir=%v k=%d: %d members, oracle %d",
					label, src, dir, ball.K, len(ball.Neighbors), len(want))
			}
			for _, nb := range ball.Neighbors {
				wb, ok := want[graph.Vertex(nb.ID)]
				if !ok {
					t.Fatalf("%s: src=%d dir=%v: spurious member %d", label, src, dir, nb.ID)
				}
				if wb != nb.Bucket {
					t.Fatalf("%s: src=%d dir=%v: member %d bucket %v, oracle %v",
						label, src, dir, nb.ID, nb.Bucket, wb)
				}
			}
		}
	}
}

func TestConformanceAllVariants(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, baseSpec := range conformanceSpecs() {
		for _, seed := range seeds {
			spec := baseSpec
			spec.Seed += seed * 0x9e37 // vary the generated graph per seed
			t.Run(fmt.Sprintf("%s/seed=%d", spec.Name, seed), func(t *testing.T) {
				ig := spec.Generate()
				g := kreach.WrapInternal(ig)
				n := g.NumVertices()
				oracle := workload.NewNeighborStream(ig, seed, conformanceKs, 0)

				multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{
					Rungs: kreach.ExactRungs(4), Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range conformanceKs {
					k := k
					t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
						// Plain index at this exact k (covers n-reach for
						// Unbounded).
						plain, err := kreach.BuildIndex(g, kreach.IndexOptions{
							K: k, Cover: kreach.DegreePrioritizedCover, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						checkPairs(t, "plain", plain, ig, k, seed+10)
						checkBalls(t, "plain", plain, oracle, n, k, seed+11)

						// (h,k) variant where Definition 2 permits one.
						if k > 2 {
							hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: k})
							if err != nil {
								t.Fatal(err)
							}
							checkPairs(t, "hk", hk, ig, k, seed+20)
							checkBalls(t, "hk", hk, oracle, n, k, seed+21)
						}

						// The ladder answers every k of the sweep exactly
						// (rungs 2..4, the k=1 edge test, the unbounded rung).
						checkPairs(t, "multi", multi, ig, k, seed+30)
						checkBalls(t, "multi", multi, oracle, n, k, seed+31)

						// Dynamic (finite k only), first pristine, then
						// mid-mutation against a rebuilt-graph oracle.
						if k > 0 {
							dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: k, Seed: seed})
							if err != nil {
								t.Fatal(err)
							}
							checkPairs(t, "dynamic", dyn, ig, k, seed+40)
							checkBalls(t, "dynamic", dyn, oracle, n, k, seed+41)

							mutated := mutateDynamic(t, dyn, ig, seed)
							mutOracle := workload.NewNeighborStream(mutated, seed, conformanceKs, 0)
							checkPairs(t, "dynamic+mut", dyn, mutated, k, seed+50)
							checkBalls(t, "dynamic+mut", dyn, mutOracle, n, k, seed+51)
						}
					})
				}
			})
		}
	}
}

// mutateDynamic applies a deterministic sequence of edge mutations to dyn
// (one batch per op, keeping the index in lockstep with the stream's own
// edge set) and returns an independently rebuilt graph of the
// post-mutation edge set, for oracle use.
func mutateDynamic(t *testing.T, dyn *kreach.DynamicIndex, base *graph.Graph, seed uint64) *graph.Graph {
	t.Helper()
	stream := workload.NewMutationStream(base, seed+60, workload.MutationMix{Add: 0.5, Remove: 0.5})
	applied := 0
	for applied < 40 {
		op := stream.Next()
		var res kreach.MutationResult
		var err error
		switch op.Kind {
		case workload.OpAdd:
			res, err = dyn.Mutate([][2]int{{int(op.U), int(op.V)}}, nil)
		case workload.OpRemove:
			res, err = dyn.Mutate(nil, [][2]int{{int(op.U), int(op.V)}})
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied() {
			t.Fatalf("op %v (%d,%d) did not apply: %+v (stream ops are always fresh/live)",
				op.Kind, op.U, op.V, res)
		}
		applied++
	}
	// The stream's edge set is the ground truth for the mutated graph.
	return graph.FromEdges(base.NumVertices(), stream.Edges())
}

// TestConformanceFollowerReplication extends the differential suite to the
// replication path: a library-level follower replays a durable primary's
// WAL feed — snapshots, records, and compaction epoch markers — and at
// EVERY published epoch must stand at the primary's exact epoch and agree
// with both the primary and the BFS oracle, across k ∈ {1..4}.
func TestConformanceFollowerReplication(t *testing.T) {
	spec, ok := gen.Dataset("Nasa")
	if !ok {
		t.Fatal("unknown conformance dataset Nasa")
	}
	spec = spec.Scaled(60)
	for k := 1; k <= 4; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ig := spec.Generate()
			g := kreach.WrapInternal(ig)
			n := g.NumVertices()
			seed := uint64(k)
			opts := kreach.DynamicOptions{K: k, Seed: seed, CompactRatio: 1e9}
			dyn, _, w, err := kreach.OpenDurableDynamicIndex(g, opts, kreach.DurableOptions{
				Dir: t.TempDir(), RetainEpochs: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			// The follower: a plain in-memory index driven purely by feed
			// chunks, exactly the protocol kreachd -follow speaks.
			fdyn, err := kreach.NewDynamicIndex(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cursor uint64
			pairs := func(es []graph.Edge) [][2]int {
				out := make([][2]int, len(es))
				for i, e := range es {
					out[i] = [2]int{int(e.Src), int(e.Dst)}
				}
				return out
			}
			syncFollower := func() {
				t.Helper()
				ck, err := w.FeedSince(cursor, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ck.Snapshot != nil {
					fg, epoch, err := kreach.DecodeWALSnapshot(ck.Snapshot)
					if err != nil {
						t.Fatal(err)
					}
					if fdyn, err = kreach.AdoptDynamicSnapshot(fg, epoch, opts, nil); err != nil {
						t.Fatal(err)
					}
					cursor = epoch
				}
				if len(ck.Records) > 0 {
					recs, err := wal.DecodeRecords(ck.Records)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range recs {
						if rec.Epoch <= cursor {
							continue
						}
						if _, err := fdyn.ApplyRecord(pairs(rec.Add), pairs(rec.Remove), rec.Epoch); err != nil {
							t.Fatal(err)
						}
						cursor = rec.Epoch
					}
				}
				// A served-through beyond the last record is a primary
				// compaction: adopt it as an epoch marker.
				if ck.ServedThrough > cursor {
					if _, err := fdyn.ApplyRecord(nil, nil, ck.ServedThrough); err != nil {
						t.Fatal(err)
					}
					cursor = ck.ServedThrough
				}
			}

			// checkEpoch: exact epoch equality plus three-way pairwise
			// agreement (primary, follower, oracle) on the current edge set.
			ms := workload.NewMutationStream(ig, seed+70, workload.MutationMix{Add: 0.55, Remove: 0.45})
			checkEpoch := func(step int) {
				t.Helper()
				syncFollower()
				if fdyn.Epoch() != dyn.Epoch() {
					t.Fatalf("step %d: follower at epoch %d, primary at %d", step, fdyn.Epoch(), dyn.Epoch())
				}
				cur := graph.FromEdges(n, ms.Edges())
				checkPairs(t, fmt.Sprintf("primary@%d", step), dyn, cur, k, seed+uint64(step))
				checkPairs(t, fmt.Sprintf("follower@%d", step), fdyn, cur, k, seed+uint64(step))
			}

			applied := 0
			for applied < 24 {
				op := ms.Next()
				var res kreach.MutationResult
				switch op.Kind {
				case workload.OpAdd:
					res, err = dyn.Mutate([][2]int{{int(op.U), int(op.V)}}, nil)
				case workload.OpRemove:
					res, err = dyn.Mutate(nil, [][2]int{{int(op.U), int(op.V)}})
				default:
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Applied() {
					t.Fatalf("op %v (%d,%d) did not apply: %+v", op.Kind, op.U, op.V, res)
				}
				applied++
				checkEpoch(applied)

				if applied == 12 {
					// A mid-run compaction publishes a record-free epoch; the
					// follower must adopt it and stay answer-identical.
					next, _, err := dyn.Compact(nil)
					if err != nil {
						t.Fatal(err)
					}
					dyn = next
					checkEpoch(-applied)
				}
			}
		})
	}
}
