// Benchmarks regenerating the paper's evaluation, one group per table (plus
// ablations). `go test -bench=.` runs everything on 1/10-scale datasets so
// the suite finishes in minutes; cmd/kbench prints the same paper tables at
// paper scale with the full 1M-query workload.
//
//	BenchmarkTable2DatasetStats    — Table 2 statistics pipeline
//	BenchmarkTable3Construction/*  — per-index construction
//	BenchmarkTable4IndexSize       — index sizes (reported as metrics)
//	BenchmarkTable5Query/*         — classic-reachability query throughput
//	BenchmarkTable7KReach/*        — k-reach for k ∈ {2,4,6,µ,n}, µ-BFS, µ-dist
//	BenchmarkTable8CaseMix         — Algorithm 2 case classification
//	BenchmarkTable9HK/*            — µ-reach vs (2,µ)-reach
//	BenchmarkAblation*             — cover strategies, parallel build, ladder
package kreach_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"kreach/internal/baseline/grail"
	"kreach/internal/baseline/pll"
	"kreach/internal/baseline/ptree"
	"kreach/internal/baseline/pwah"
	"kreach/internal/baseline/threehop"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/scc"
	"kreach/internal/workload"
)

// benchScale shrinks datasets 10× so the full `-bench=.` sweep stays fast.
const benchScale = 10

// benchDatasets covers each structural family once.
var benchDatasets = []string{"AgroCyc", "aMaze", "ArXiv", "Nasa", "YAGO"}

var graphCache = map[string]*graph.Graph{}

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := graphCache[name]; ok {
		return g
	}
	spec, ok := gen.Dataset(name)
	if !ok {
		b.Fatalf("unknown dataset %q", name)
	}
	spec.N /= benchScale
	spec.M /= benchScale
	spec.SCCExtra /= benchScale
	if spec.Hubs > 0 {
		spec.Hubs = max(spec.Hubs/benchScale, 4)
	}
	if spec.DegMax > spec.N/2 {
		spec.DegMax = spec.N / 2
	} else if spec.DegMax > 0 {
		spec.DegMax = max(spec.DegMax/benchScale, 8)
	}
	if spec.Window > 0 {
		spec.Window = max(spec.Window/benchScale, 10)
	}
	spec.BackEdges /= benchScale
	g := spec.Generate()
	graphCache[name] = g
	return g
}

func benchQueries(g *graph.Graph) workload.Queries {
	return workload.Uniform(g.NumVertices(), 1<<14, 42)
}

// BenchmarkTable2DatasetStats measures the Table 2 statistics pipeline
// (generation excluded; SCC condensation plus sampled BFS sweeps).
func BenchmarkTable2DatasetStats(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < b.N; i++ {
				cond := scc.Condense(g)
				st := graph.ComputeStats(g, 64, rng)
				_ = cond
				_ = st
			}
		})
	}
}

// BenchmarkTable3Construction measures index construction for the five
// Tables 3–5 systems.
func BenchmarkTable3Construction(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		b.Run(name+"/n-reach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Options{K: core.Unbounded,
					Strategy: cover.DegreePrioritized, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/PTree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ptree.Build(g)
			}
		})
		b.Run(name+"/3-hop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				threehop.Build(g)
			}
		})
		b.Run(name+"/GRAIL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grail.Build(g, 2, 1)
			}
		})
		b.Run(name+"/PWAH", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pwah.Build(g)
			}
		})
	}
}

// BenchmarkTable4IndexSize reports index sizes as custom metrics (bytes).
func BenchmarkTable4IndexSize(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kix, err := core.Build(g, core.Options{K: core.Unbounded,
					Strategy: cover.DegreePrioritized, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(kix.SizeBytes()), "nreach-B")
				b.ReportMetric(float64(ptree.Build(g).SizeBytes()), "ptree-B")
				b.ReportMetric(float64(threehop.Build(g).SizeBytes()), "3hop-B")
				b.ReportMetric(float64(grail.Build(g, 2, 1).SizeBytes()), "grail-B")
				b.ReportMetric(float64(pwah.Build(g).SizeBytes()), "pwah-B")
			}
		})
	}
}

// BenchmarkTable5Query measures classic-reachability query throughput for
// the five systems over a uniform workload.
func BenchmarkTable5Query(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		q := benchQueries(g)
		kix, err := core.Build(g, core.Options{K: core.Unbounded,
			Strategy: cover.DegreePrioritized, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		scratch := core.NewQueryScratch()
		b.Run(name+"/n-reach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kix.Reach(q.S[i%q.Len()], q.T[i%q.Len()], scratch)
			}
		})
		pt := ptree.Build(g)
		b.Run(name+"/PTree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt.Reach(q.S[i%q.Len()], q.T[i%q.Len()])
			}
		})
		th := threehop.Build(g)
		b.Run(name+"/3-hop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				th.Reach(q.S[i%q.Len()], q.T[i%q.Len()])
			}
		})
		gr := grail.Build(g, 2, 1)
		b.Run(name+"/GRAIL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gr.Reach(q.S[i%q.Len()], q.T[i%q.Len()])
			}
		})
		pw := pwah.Build(g)
		b.Run(name+"/PWAH", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pw.Reach(q.S[i%q.Len()], q.T[i%q.Len()])
			}
		})
	}
}

// BenchmarkTable7KReach measures k-hop query throughput for k ∈ {2,4,6,µ,n}
// plus the µ-BFS and µ-dist baselines.
func BenchmarkTable7KReach(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		q := benchQueries(g)
		rng := rand.New(rand.NewPCG(3, 4))
		st := graph.ComputeStats(g, 64, rng)
		mu := max(st.MedianPath, 1)
		cov := cover.VertexCover(g, cover.DegreePrioritized, 1)
		for _, kv := range []struct {
			label string
			k     int
		}{
			{"2-reach", 2}, {"4-reach", 4}, {"6-reach", 6},
			{fmt.Sprintf("mu%d-reach", mu), mu}, {"n-reach", core.Unbounded},
		} {
			ix, err := core.BuildWithCover(g, core.Options{K: kv.k, Seed: 1}, cov)
			if err != nil {
				b.Fatal(err)
			}
			scratch := core.NewQueryScratch()
			b.Run(name+"/"+kv.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ix.Reach(q.S[i%q.Len()], q.T[i%q.Len()], scratch)
				}
			})
		}
		bfsScratch := graph.NewBFSScratch(g.NumVertices())
		b.Run(name+"/mu-BFS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.KHopReach(g, q.S[i%q.Len()], q.T[i%q.Len()], mu, bfsScratch)
			}
		})
		dist := pll.Build(g)
		b.Run(name+"/mu-dist", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.Reach(q.S[i%q.Len()], q.T[i%q.Len()], mu)
			}
		})
	}
}

// BenchmarkTable8CaseMix measures Algorithm 2 case classification over the
// workload and reports the case percentages as metrics.
func BenchmarkTable8CaseMix(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		q := benchQueries(g)
		ix, err := core.Build(g, core.Options{K: core.Unbounded,
			Strategy: cover.DegreePrioritized, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var mix workload.CaseMix
			for i := 0; i < b.N; i++ {
				mix = workload.Classify(ix, q)
			}
			for c := 0; c < 4; c++ {
				b.ReportMetric(100*mix.Case[c], fmt.Sprintf("case%d-%%", c+1))
			}
		})
	}
}

// BenchmarkTable9HK measures µ-reach vs (2,µ)-reach queries and reports the
// two cover sizes as metrics.
func BenchmarkTable9HK(b *testing.B) {
	for _, name := range benchDatasets {
		g := benchGraph(b, name)
		q := benchQueries(g)
		rng := rand.New(rand.NewPCG(5, 6))
		st := graph.ComputeStats(g, 64, rng)
		k := max(st.MedianPath, 5)
		ix, err := core.Build(g, core.Options{K: k, Strategy: cover.DegreePrioritized, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		scratch := core.NewQueryScratch()
		b.Run(name+"/mu-reach", func(b *testing.B) {
			b.ReportMetric(float64(ix.Cover().Len()), "cover")
			for i := 0; i < b.N; i++ {
				ix.Reach(q.S[i%q.Len()], q.T[i%q.Len()], scratch)
			}
		})
		hk, err := core.BuildHK(g, core.HKOptions{H: 2, K: k})
		if err != nil {
			b.Fatal(err)
		}
		hscratch := core.NewHKQueryScratch(hk)
		b.Run(name+"/2mu-reach", func(b *testing.B) {
			b.ReportMetric(float64(hk.Cover().Len()), "cover")
			for i := 0; i < b.N; i++ {
				hk.Reach(q.S[i%q.Len()], q.T[i%q.Len()], hscratch)
			}
		})
	}
}

// BenchmarkAblationCoverStrategy compares the three cover heuristics on
// construction: the §4.3 degree-prioritized matching vs the random baseline
// vs pure greedy, reporting cover and index sizes.
func BenchmarkAblationCoverStrategy(b *testing.B) {
	g := benchGraph(b, "AgroCyc")
	for _, sc := range []struct {
		label string
		s     cover.Strategy
	}{
		{"random", cover.RandomEdge},
		{"degree", cover.DegreePrioritized},
		{"greedy", cover.GreedyVertex},
	} {
		b.Run(sc.label, func(b *testing.B) {
			var ix *core.Index
			for i := 0; i < b.N; i++ {
				var err error
				ix, err = core.Build(g, core.Options{K: 6, Strategy: sc.s, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.Cover().Len()), "cover")
			b.ReportMetric(float64(ix.SizeBytes()), "bytes")
		})
	}
}

// BenchmarkAblationParallelBuild measures the §4.1.3 construction
// parallelism on the densest bench dataset.
func BenchmarkAblationParallelBuild(b *testing.B) {
	g := benchGraph(b, "ArXiv")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Options{K: core.Unbounded,
					Seed: 1, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLadder compares the §4.4 power-of-two ladder against the
// exhaustive ladder: build cost and total size.
func BenchmarkAblationLadder(b *testing.B) {
	g := benchGraph(b, "Nasa")
	for _, lc := range []struct {
		label string
		ks    []int
	}{
		{"power-of-two", core.PowerOfTwoKs(16)},
		{"exhaustive", core.AllKs(16)},
	} {
		b.Run(lc.label, func(b *testing.B) {
			var m *core.MultiIndex
			for i := 0; i < b.N; i++ {
				var err error
				m, err = core.BuildMulti(g, lc.ks, core.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.SizeBytes()), "bytes")
		})
	}
}

// BenchmarkAblationWeightEncoding isolates the cost of the 2-bit packed
// weight array against the query path that uses it (Case 4 merges).
func BenchmarkAblationWeightEncoding(b *testing.B) {
	g := benchGraph(b, "Human")
	q := benchQueries(g)
	ix, err := core.Build(g, core.Options{K: 4, Strategy: cover.DegreePrioritized, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	scratch := core.NewQueryScratch()
	b.Run("case4-heavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Reach(q.S[i%q.Len()], q.T[i%q.Len()], scratch)
		}
	})
}
