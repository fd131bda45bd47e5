package kreach_test

// Integration tests: every reachability system in the repository answers
// the same queries on the same (scaled-down) synthetic datasets, so the
// k-reach index, all four classic-reachability baselines, the distance
// index, the (h,k)-reach variant and the multi-k ladder must agree with the
// BFS ground truth and hence with each other, on the same generated
// stand-ins the paper scorecard (paper_test.go) times.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"kreach"
	"kreach/internal/baseline/grail"
	"kreach/internal/baseline/pll"
	"kreach/internal/baseline/ptree"
	"kreach/internal/baseline/pwah"
	"kreach/internal/baseline/threehop"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/workload"
)

// integrationGraph generates a ~1/40-scale instance of a dataset family.
func integrationGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	spec, ok := gen.Dataset(name)
	if !ok {
		t.Fatalf("unknown dataset %q", name)
	}
	return spec.Scaled(40).Generate()
}

func TestAllSystemsAgreeOnDatasets(t *testing.T) {
	// One dataset per family keeps the run fast while touching every
	// generator and every index code path.
	for _, name := range []string{"AgroCyc", "aMaze", "ArXiv", "Nasa", "YAGO"} {
		t.Run(name, func(t *testing.T) {
			g := integrationGraph(t, name)
			n := g.NumVertices()
			scratch := new(graph.BFS)

			nreach, err := core.Build(g, core.Options{
				K: core.Unbounded, Strategy: cover.DegreePrioritized, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			qs := core.NewQueryScratch()
			pt := ptree.Build(g)
			th := threehop.Build(g)
			gr := grail.Build(g, 2, 1)
			pw := pwah.Build(g)
			dist := pll.Build(g)

			q := workload.Uniform(n, 4000, 99)
			for i := 0; i < q.Len(); i++ {
				s, tt := q.S[i], q.T[i]
				want := graph.KHopReach(g, s, tt, -1, scratch)
				checks := map[string]bool{
					"n-reach": nreach.Reach(s, tt, qs),
					"PTree":   pt.Reach(s, tt),
					"3-hop":   th.Reach(s, tt),
					"GRAIL":   gr.Reach(s, tt),
					"PWAH":    pw.Reach(s, tt),
					"PLL":     dist.Reach(s, tt, -1),
				}
				for sys, got := range checks {
					if got != want {
						t.Fatalf("%s disagrees with BFS on (%d,%d): got %v want %v",
							sys, s, tt, got, want)
					}
				}
			}
		})
	}
}

func TestKHopSystemsAgreeOnDatasets(t *testing.T) {
	for _, name := range []string{"AgroCyc", "Nasa"} {
		for _, k := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				g := integrationGraph(t, name)
				n := g.NumVertices()
				scratch := new(graph.BFS)

				ix, err := core.Build(g, core.Options{K: k, Seed: 2})
				if err != nil {
					t.Fatal(err)
				}
				qs := core.NewQueryScratch()
				var hk *core.HKIndex
				var hkScratch *core.HKQueryScratch
				if k > 4 {
					hk, err = core.BuildHK(g, core.HKOptions{H: 2, K: k})
					if err != nil {
						t.Fatal(err)
					}
					hkScratch = core.NewHKQueryScratch()
				}
				multi, err := core.BuildMulti(g, core.AllKs(8), core.Options{Seed: 2})
				if err != nil {
					t.Fatal(err)
				}
				dist := pll.Build(g)

				q := workload.Uniform(n, 3000, 7)
				for i := 0; i < q.Len(); i++ {
					s, tt := q.S[i], q.T[i]
					want := graph.KHopReach(g, s, tt, k, scratch)
					if got := ix.Reach(s, tt, qs); got != want {
						t.Fatalf("k-reach disagrees on (%d,%d): %v want %v", s, tt, got, want)
					}
					if hk != nil {
						if got := hk.Reach(s, tt, hkScratch); got != want {
							t.Fatalf("(2,%d)-reach disagrees on (%d,%d): %v want %v", k, s, tt, got, want)
						}
					}
					if res := multi.Reach(s, tt, k, qs); (res.Verdict == core.Yes) != want ||
						res.Verdict == core.YesWithin {
						t.Fatalf("ladder disagrees on (%d,%d): %v want %v", s, tt, res.Verdict, want)
					}
					if got := dist.Reach(s, tt, k); got != want {
						t.Fatalf("PLL k-hop disagrees on (%d,%d): %v want %v", s, tt, got, want)
					}
				}
			})
		}
	}
}

func TestCelebrityWorkloadFavorsCheapCases(t *testing.T) {
	// §4.3: with the degree-prioritized cover, celebrity-biased workloads
	// land mostly in Cases 1–3 (the cheap paths); with a random cover the
	// same workload can degrade. Verify the prioritized cover keeps
	// hub-endpoint queries out of Case 4 entirely.
	g := integrationGraph(t, "Human")
	ix, err := core.Build(g, core.Options{
		K: 4, Strategy: cover.DegreePrioritized, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.CelebrityBiased(g, 5000, 5, 1.0, 3) // every endpoint a top-5 hub
	mix := workload.Classify(ix, q)
	if mix.Case[3] > 0 {
		t.Fatalf("celebrity-only workload hit Case 4: %+v", mix)
	}
}

// TestBuiltBytesDoNotDependOnParallelism: on one dataset per generator
// family, every cover strategy and the (h,k) variant save the same bytes
// however many workers built them — the row builder's chunk claims and the
// concurrent finalize may reorder work, never output.
func TestBuiltBytesDoNotDependOnParallelism(t *testing.T) {
	type saver interface{ Save(io.Writer) error }
	for _, name := range []string{"AgroCyc", "aMaze", "ArXiv", "Nasa", "YAGO"} {
		spec, ok := gen.Dataset(name)
		if !ok {
			t.Fatalf("unknown dataset %q", name)
		}
		g := kreach.WrapInternal(spec.Scaled(10).Generate())
		builds := map[string]func(parallelism int) (saver, error){
			"(2,5)-reach": func(p int) (saver, error) {
				return kreach.BuildHKIndex(g, kreach.HKOptions{H: 2, K: 5, Parallelism: p})
			},
		}
		for _, strat := range []kreach.CoverStrategy{kreach.RandomEdgeCover, kreach.DegreePrioritizedCover, kreach.GreedyCover} {
			builds[fmt.Sprintf("3-reach, cover strategy %d", strat)] = func(p int) (saver, error) {
				return kreach.BuildIndex(g, kreach.IndexOptions{K: 3, Cover: strat, Seed: 7, Parallelism: p})
			}
		}
		for label, build := range builds {
			var want []byte
			for _, p := range []int{1, 2, 8} {
				ix, err := build(p)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if p == 1 {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s, %s: Parallelism %d saves different bytes than Parallelism 1", name, label, p)
				}
			}
		}
	}
}
