// Package bench is the experiment harness: it regenerates every table of
// the paper's evaluation section (Tables 2–9) on the synthetic dataset
// suite, printing rows in the paper's layout so that EXPERIMENTS.md can
// record paper-vs-measured side by side. cmd/kbench is its CLI.
package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"text/tabwriter"
	"time"

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

// Config tunes a harness run.
type Config struct {
	Datasets []string // dataset names; nil means the full Table 2 suite
	Queries  int      // workload size (the paper uses 1,000,000)
	Seed     uint64
	Scale    int // divide dataset sizes by this factor (1 = paper scale)
	Out      io.Writer
}

// Runner generates datasets lazily and caches everything needed across
// tables (graph, stats, covers, workloads).
type Runner struct {
	cfg  Config
	data map[string]*dataset
}

type dataset struct {
	g    *graph.Graph
	cond *scc.Condensation
	st   graph.Stats
	q    workload.Queries
}

// NewRunner validates cfg and prepares a runner.
func NewRunner(cfg Config) *Runner {
	if cfg.Queries <= 0 {
		cfg.Queries = 1_000_000
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = gen.Names()
	}
	return &Runner{cfg: cfg, data: make(map[string]*dataset)}
}

func (r *Runner) dataset(name string) (*dataset, error) {
	if d, ok := r.data[name]; ok {
		return d, nil
	}
	spec, ok := gen.Dataset(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	d := &dataset{g: spec.Scaled(r.cfg.Scale).Generate()}
	d.cond = scc.Condense(d.g)
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 0x57a75))
	d.st = graph.ComputeStats(d.g, 800, rng)
	d.q = workload.Uniform(d.g.NumVertices(), r.cfg.Queries, r.cfg.Seed+7)
	r.data[name] = d
	return d, nil
}

// reachIndex is the classic-reachability face shared by n-reach and the
// four baselines in Tables 3–5.
type reachIndex interface {
	Reach(s, t graph.Vertex) bool
	SizeBytes() int
}

// nreachAdapter wraps core.Index with its query scratch.
type nreachAdapter struct {
	ix      *core.Index
	scratch *core.QueryScratch
}

func (a *nreachAdapter) Reach(s, t graph.Vertex) bool { return a.ix.Reach(s, t, a.scratch) }
func (a *nreachAdapter) SizeBytes() int               { return a.ix.SizeBytes() }

// IndexNames lists the five Tables 3–5 systems in the paper's column order.
var IndexNames = []string{"n-reach", "PTree", "3-hop", "GRAIL", "PWAH"}

// buildAll constructs the five indexes of Tables 3–5 and reports per-index
// build time.
func (r *Runner) buildAll(d *dataset) (map[string]reachIndex, map[string]time.Duration, error) {
	ixs := make(map[string]reachIndex, 5)
	times := make(map[string]time.Duration, 5)

	t0 := time.Now()
	kix, err := core.Build(d.g, core.Options{
		K:        core.Unbounded,
		Strategy: cover.DegreePrioritized,
		Seed:     r.cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	times["n-reach"] = time.Since(t0)
	ixs["n-reach"] = &nreachAdapter{ix: kix, scratch: core.NewQueryScratch()}

	t0 = time.Now()
	ixs["PTree"] = ptree.Build(d.g)
	times["PTree"] = time.Since(t0)

	t0 = time.Now()
	ixs["3-hop"] = threehop.Build(d.g)
	times["3-hop"] = time.Since(t0)

	t0 = time.Now()
	ixs["GRAIL"] = grail.Build(d.g, 2, r.cfg.Seed)
	times["GRAIL"] = time.Since(t0)

	t0 = time.Now()
	ixs["PWAH"] = pwah.Build(d.g)
	times["PWAH"] = time.Since(t0)
	return ixs, times, nil
}

func (r *Runner) tab() *tabwriter.Writer {
	return tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', tabwriter.AlignRight)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

func mb(bytes int) string { return fmt.Sprintf("%.2f", float64(bytes)/(1024*1024)) }

// Table2 prints dataset statistics: |V| |E| |VDAG| |EDAG| Degmax d µ.
func (r *Runner) Table2() error {
	fmt.Fprintln(r.cfg.Out, "Table 2: Datasets")
	w := r.tab()
	fmt.Fprintln(w, "\t|V|\t|E|\t|VDAG|\t|EDAG|\tDegmax\td\tµ\t")
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			name, d.g.NumVertices(), d.g.NumEdges(),
			d.cond.DAG.NumVertices(), d.cond.DAG.NumEdges(),
			d.st.MaxDegree, d.st.Diameter, d.st.MedianPath)
	}
	return w.Flush()
}

// Table3 prints index construction time in milliseconds for the five
// systems.
func (r *Runner) Table3() error {
	fmt.Fprintln(r.cfg.Out, "Table 3: Index construction time (ms)")
	return r.tables345(func(w io.Writer, name string, ixs map[string]reachIndex, times map[string]time.Duration, _ *dataset) {
		fmt.Fprintf(w, "%s", name)
		for _, in := range IndexNames {
			fmt.Fprintf(w, "\t%s", ms(times[in]))
		}
		fmt.Fprintln(w, "\t")
	})
}

// Table4 prints index size in MB for the five systems.
func (r *Runner) Table4() error {
	fmt.Fprintln(r.cfg.Out, "Table 4: Index size (MB)")
	return r.tables345(func(w io.Writer, name string, ixs map[string]reachIndex, _ map[string]time.Duration, _ *dataset) {
		fmt.Fprintf(w, "%s", name)
		for _, in := range IndexNames {
			fmt.Fprintf(w, "\t%s", mb(ixs[in].SizeBytes()))
		}
		fmt.Fprintln(w, "\t")
	})
}

// Table5 prints total time (ms) to answer the random query workload with
// each of the five systems.
func (r *Runner) Table5() error {
	fmt.Fprintf(r.cfg.Out, "Table 5: Total query time for %d random queries (ms)\n", r.cfg.Queries)
	return r.tables345(func(w io.Writer, name string, ixs map[string]reachIndex, _ map[string]time.Duration, d *dataset) {
		fmt.Fprintf(w, "%s", name)
		for _, in := range IndexNames {
			ix := ixs[in]
			t0 := time.Now()
			for i := 0; i < d.q.Len(); i++ {
				ix.Reach(d.q.S[i], d.q.T[i])
			}
			fmt.Fprintf(w, "\t%s", ms(time.Since(t0)))
		}
		fmt.Fprintln(w, "\t")
	})
}

func (r *Runner) tables345(row func(io.Writer, string, map[string]reachIndex, map[string]time.Duration, *dataset)) error {
	w := r.tab()
	fmt.Fprint(w, "")
	for _, in := range IndexNames {
		fmt.Fprintf(w, "\t%s", in)
	}
	fmt.Fprintln(w, "\t")
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		ixs, times, err := r.buildAll(d)
		if err != nil {
			return err
		}
		row(w, name, ixs, times, d)
	}
	return w.Flush()
}

// Table6 prints per-metric performance ranks (1 = best), averaged over the
// datasets, mirroring the paper's summary ranking.
func (r *Runner) Table6() error {
	fmt.Fprintln(r.cfg.Out, "Table 6: Performance ranking (1 = best, averaged over datasets)")
	sums := map[string][3]float64{} // indexing, size, query rank sums
	n := 0
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		ixs, times, err := r.buildAll(d)
		if err != nil {
			return err
		}
		var build, size, query []float64
		for _, in := range IndexNames {
			build = append(build, float64(times[in]))
			size = append(size, float64(ixs[in].SizeBytes()))
			t0 := time.Now()
			for i := 0; i < d.q.Len(); i++ {
				ixs[in].Reach(d.q.S[i], d.q.T[i])
			}
			query = append(query, float64(time.Since(t0)))
		}
		for i, in := range IndexNames {
			s := sums[in]
			s[0] += rankOf(build, i)
			s[1] += rankOf(size, i)
			s[2] += rankOf(query, i)
			sums[in] = s
		}
		n++
	}
	w := r.tab()
	fmt.Fprint(w, "")
	for _, in := range IndexNames {
		fmt.Fprintf(w, "\t%s", in)
	}
	fmt.Fprintln(w, "\t")
	labels := []string{"Indexing time", "Index size", "Querying time"}
	for m := 0; m < 3; m++ {
		fmt.Fprintf(w, "%s", labels[m])
		for _, in := range IndexNames {
			fmt.Fprintf(w, "\t%.1f", sums[in][m]/float64(n))
		}
		fmt.Fprintln(w, "\t")
	}
	return w.Flush()
}

func rankOf(vals []float64, i int) float64 {
	rank := 1.0
	for j, v := range vals {
		if j != i && v < vals[i] {
			rank++
		}
	}
	return rank
}

// Table7 prints total query time for k-reach with k ∈ {2,4,6,µ,n}, plus
// the µ-BFS and µ-dist (PLL) baselines.
func (r *Runner) Table7() error {
	fmt.Fprintf(r.cfg.Out, "Table 7: k-reach total query time for %d queries (ms)\n", r.cfg.Queries)
	w := r.tab()
	fmt.Fprintln(w, "\t2-reach\t4-reach\t6-reach\tµ-reach\tn-reach\tµ-BFS\tµ-dist\t")
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		mu := max(d.st.MedianPath, 1)
		// One shared cover across all k, as Section 6.3 fixes the cover and
		// varies only k.
		cov := cover.VertexCover(d.g, cover.DegreePrioritized, r.cfg.Seed)
		fmt.Fprintf(w, "%s", name)
		for _, k := range []int{2, 4, 6, mu, core.Unbounded} {
			ix, err := core.BuildWithCover(d.g, core.Options{K: k, Seed: r.cfg.Seed}, cov)
			if err != nil {
				return err
			}
			scratch := core.NewQueryScratch()
			t0 := time.Now()
			for i := 0; i < d.q.Len(); i++ {
				ix.Reach(d.q.S[i], d.q.T[i], scratch)
			}
			fmt.Fprintf(w, "\t%s", ms(time.Since(t0)))
		}
		// µ-BFS: online k-hop BFS.
		scratch := graph.NewBFSScratch(d.g.NumVertices())
		t0 := time.Now()
		for i := 0; i < d.q.Len(); i++ {
			graph.KHopReach(d.g, d.q.S[i], d.q.T[i], mu, scratch)
		}
		fmt.Fprintf(w, "\t%s", ms(time.Since(t0)))
		// µ-dist: the PLL distance index.
		dist := pll.Build(d.g)
		t0 = time.Now()
		for i := 0; i < d.q.Len(); i++ {
			dist.Reach(d.q.S[i], d.q.T[i], mu)
		}
		fmt.Fprintf(w, "\t%s", ms(time.Since(t0)))
		fmt.Fprintln(w, "\t")
	}
	return w.Flush()
}

// Table8 prints the percentage of workload queries in each Algorithm 2
// case.
func (r *Runner) Table8() error {
	fmt.Fprintln(r.cfg.Out, "Table 8: Percentage of queries per Algorithm 2 case")
	w := r.tab()
	fmt.Fprintln(w, "\tCase 1\tCase 2\tCase 3\tCase 4\t")
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		ix, err := core.Build(d.g, core.Options{
			K:        core.Unbounded,
			Strategy: cover.DegreePrioritized,
			Seed:     r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		mix := workload.Classify(ix, d.q)
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
			name, 100*mix.Case[0], 100*mix.Case[1], 100*mix.Case[2], 100*mix.Case[3])
	}
	return w.Flush()
}

// Table9 prints vertex-cover vs 2-hop-vertex-cover sizes and the total
// query time of µ-reach vs (2,µ)-reach. Like the paper, only datasets where
// the 2-hop cover shrinks by at least 20% are listed (others are printed
// with a note when verbose).
func (r *Runner) Table9() error {
	fmt.Fprintf(r.cfg.Out, "Table 9: (h,k)-reach tradeoff (%d queries)\n", r.cfg.Queries)
	w := r.tab()
	fmt.Fprintln(w, "\tVC size\t2-hop VC\tµ-reach (ms)\t(2,µ)-reach (ms)\t")
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		vc := cover.VertexCover(d.g, cover.DegreePrioritized, r.cfg.Seed)
		hc := cover.HHopCover(d.g, 2)
		mu := max(d.st.MedianPath, 1)
		k := max(mu, 5) // (2,k)-reach needs k > 2h = 4
		ix, err := core.BuildWithCover(d.g, core.Options{K: k, Seed: r.cfg.Seed}, vc)
		if err != nil {
			return err
		}
		scratch := core.NewQueryScratch()
		t0 := time.Now()
		for i := 0; i < d.q.Len(); i++ {
			ix.Reach(d.q.S[i], d.q.T[i], scratch)
		}
		tK := time.Since(t0)
		hk, err := core.BuildHKWithCover(d.g, core.HKOptions{H: 2, K: k}, hc)
		if err != nil {
			return err
		}
		hscratch := core.NewHKQueryScratch(hk)
		t0 = time.Now()
		for i := 0; i < d.q.Len(); i++ {
			hk.Reach(d.q.S[i], d.q.T[i], hscratch)
		}
		tHK := time.Since(t0)
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t\n", name, vc.Len(), hc.Len(), ms(tK), ms(tHK))
	}
	return w.Flush()
}

// Run executes the requested tables ("2".."9" or "all") in order.
func (r *Runner) Run(tables []string) error {
	fns := map[string]func() error{
		"2": r.Table2, "3": r.Table3, "4": r.Table4, "5": r.Table5,
		"6": r.Table6, "7": r.Table7, "8": r.Table8, "9": r.Table9,
	}
	var order []string
	for _, t := range tables {
		if t == "all" {
			order = []string{"2", "3", "4", "5", "6", "7", "8", "9"}
			break
		}
		order = append(order, t)
	}
	sort.Strings(order)
	for i, t := range order {
		fn, ok := fns[t]
		if !ok {
			return fmt.Errorf("bench: unknown table %q", t)
		}
		if i > 0 {
			fmt.Fprintln(r.cfg.Out)
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}
