package bench

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"

	"kreach/internal/cache"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/wal"
	"kreach/internal/workload"
)

// Machine-readable benchmark trajectory. `kbench -json FILE` (and `make
// bench-json`) emits one Report per run — the reach/batch/cached/mutate/
// neighbors hot paths measured on the same scaled dataset suite the text
// tables use — so CI can archive BENCH_kreach.json per commit and the
// performance trajectory of the repo is a diffable artifact instead of
// prose. Schema changes bump Schema.

// Report is the top-level BENCH_kreach.json document. Schema 2 added
// GOMAXPROCS (so the batch worker sweep can be judged against the cores
// that were actually available) and NeighborRow.EnumSpeedup; schema 3
// added MutateDurable, the same mutation stream journaled through a
// fsync-per-batch WAL, so the price of durability is part of the
// trajectory; schema 4 added Latency, per-operation p50/p90/p99/max for
// the serving query families via the internal/obs histogram; schema 5
// added Router rows, which schema 6 removed with the placement ring they
// measured (benchmark/'s router.* rungs time the router now).
type Report struct {
	Schema        int                `json:"schema"`
	Queries       int                `json:"queries"`
	Scale         int                `json:"scale"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Datasets      []string           `json:"datasets"`
	Reach         []ReachRow         `json:"reach"`
	Batch         []BatchRow         `json:"batch"`
	Cached        []CacheRow         `json:"cached"`
	Mutate        []MutateRow        `json:"mutate"`
	MutateDurable []MutateDurableRow `json:"mutate_durable"`
	Neighbors     []NeighborRow      `json:"neighbors"`
	Latency       []LatencyRow       `json:"latency"`
}

// ReachRow is sequential single-query throughput on the k=µ index.
type ReachRow struct {
	Dataset string  `json:"dataset"`
	K       int     `json:"k"`
	KQPS    float64 `json:"kqps"`
}

// BatchRow is ReachBatch worker-pool throughput on the n-reach index.
type BatchRow struct {
	Dataset string  `json:"dataset"`
	Workers int     `json:"workers"`
	KQPS    float64 `json:"kqps"`
}

// CacheRow is the serve-time result-cache economics on the celebrity
// workload against the (3,8)-reach index.
type CacheRow struct {
	Dataset      string  `json:"dataset"`
	CelebHitPct  float64 `json:"celeb_hit_pct"`
	UncachedKQPS float64 `json:"uncached_kqps"`
	CachedKQPS   float64 `json:"cached_kqps"`
	Speedup      float64 `json:"speedup"`
}

// MutateRow is mixed read/write throughput on the dynamic index with the
// oracle cross-check tally (must be 0).
type MutateRow struct {
	Dataset    string  `json:"dataset"`
	K          int     `json:"k"`
	KOPS       float64 `json:"kops"`
	OracleErrs int     `json:"oracle_errs"`
}

// MutateDurableRow is the mutate workload again, but journaled through a
// write-ahead log in a scratch directory under the stated fsync policy.
// FsyncSlowdown is in-memory kops / durable kops — the multiplicative
// price of crash durability on this host's disk.
type MutateDurableRow struct {
	Dataset       string  `json:"dataset"`
	K             int     `json:"k"`
	Sync          string  `json:"sync"`
	KOPS          float64 `json:"kops"`
	FsyncSlowdown float64 `json:"fsync_slowdown"`
	OracleErrs    int     `json:"oracle_errs"`
}

// NeighborRow is k-hop ball enumeration throughput with the oracle
// cross-check tally (must be 0). EnumSpeedup is index_kballs/bfs_kballs —
// ≥1 means the cover-arc path beats re-running the BFS.
type NeighborRow struct {
	Dataset     string  `json:"dataset"`
	K           int     `json:"k"`
	AvgBall     float64 `json:"avg_ball"`
	IndexKBalls float64 `json:"index_kballs"`
	BFSKBalls   float64 `json:"bfs_kballs"`
	EnumSpeedup float64 `json:"enum_speedup"`
	OracleErrs  int     `json:"oracle_errs"`
}

// timeBest runs fn once untimed (warmup: page in the index, train the
// branch predictors) and then reps timed passes, returning the fastest.
// The hot paths here finish in well under a millisecond at bench scale, so
// a single-shot measurement is mostly scheduler and GC noise; best-of-N is
// the standard cure and keeps the JSON trajectory diffable run-to-run.
func timeBest(reps int, fn func()) time.Duration {
	fn()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// batchSweep is the worker counts the batch section measures: fixed small
// steps for cross-machine comparability plus GOMAXPROCS for "all cores",
// deduplicated and ascending (on a 1-CPU machine it is just {1, 2, 4}).
func batchSweep() []int {
	sweep := []int{1, 2, 4}
	p := runtime.GOMAXPROCS(0)
	for _, w := range sweep {
		if w == p {
			return sweep
		}
	}
	i := 0
	for i < len(sweep) && sweep[i] < p {
		i++
	}
	return append(append(append([]int{}, sweep[:i]...), p), sweep[i:]...)
}

// RunJSON measures every section and writes the indented Report to w.
func (r *Runner) RunJSON(w io.Writer) error {
	rep := Report{
		Schema:     6,
		Queries:    r.cfg.Queries,
		Scale:      r.cfg.Scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Datasets:   r.cfg.Datasets,
	}
	ctx := context.Background()
	for _, name := range r.cfg.Datasets {
		d, err := r.dataset(name)
		if err != nil {
			return err
		}
		mu := max(d.st.MedianPath, 2)

		// reach: sequential queries on the k=µ index.
		ix, err := core.Build(d.g, core.Options{K: mu, Strategy: cover.DegreePrioritized, Seed: r.cfg.Seed})
		if err != nil {
			return err
		}
		scratch := core.NewQueryScratch()
		reachTime := timeBest(3, func() {
			for i := 0; i < d.q.Len(); i++ {
				ix.Reach(d.q.S[i], d.q.T[i], scratch)
			}
		})
		rep.Reach = append(rep.Reach, ReachRow{
			Dataset: name, K: mu,
			KQPS: float64(d.q.Len()) / reachTime.Seconds() / 1000,
		})

		// batch: the work-stealing pool across the worker sweep on the
		// n-reach index.
		nix, err := core.Build(d.g, core.Options{K: core.Unbounded, Strategy: cover.DegreePrioritized, Seed: r.cfg.Seed})
		if err != nil {
			return err
		}
		pairs := make([]core.Pair, d.q.Len())
		for i := range pairs {
			pairs[i] = core.Pair{S: d.q.S[i], T: d.q.T[i]}
		}
		for _, workers := range batchSweep() {
			var batchErr error
			w := workers
			batchTime := timeBest(3, func() {
				if _, err := nix.ReachBatch(ctx, pairs, w); err != nil {
					batchErr = err
				}
			})
			if batchErr != nil {
				return batchErr
			}
			rep.Batch = append(rep.Batch, BatchRow{
				Dataset: name, Workers: workers,
				KQPS: float64(len(pairs)) / batchTime.Seconds() / 1000,
			})
		}

		// cached: celebrity workload against the (3,8)-reach index.
		row, err := r.cacheRow(name, d)
		if err != nil {
			return err
		}
		rep.Cached = append(rep.Cached, row)

		// mutate: the mixed read/write stream with oracle checks.
		mrow, err := r.mutateRow(name, d, mu)
		if err != nil {
			return err
		}
		rep.Mutate = append(rep.Mutate, mrow)

		// mutate-durable: the same stream, every batch fsynced through
		// the WAL before it applies.
		drow, err := r.mutateDurableRow(name, d, mu, mrow.KOPS)
		if err != nil {
			return err
		}
		rep.MutateDurable = append(rep.MutateDurable, drow)

		// neighbors: ball enumeration, index vs BFS, oracle-checked.
		nrow, err := r.neighborRow(ctx, name, d, mu)
		if err != nil {
			return err
		}
		rep.Neighbors = append(rep.Neighbors, nrow)

		// latency: per-operation p50/p90/p99/max per query family.
		lrows, err := r.latencyRows(ctx, name, d)
		if err != nil {
			return err
		}
		rep.Latency = append(rep.Latency, lrows...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func (r *Runner) cacheRow(name string, d *dataset) (CacheRow, error) {
	hk, err := core.BuildHK(d.g, core.HKOptions{H: 3, K: 8})
	if err != nil {
		return CacheRow{}, err
	}
	celeb := workload.CelebrityBiased(d.g, r.cfg.Queries, 64, 0.9, r.cfg.Seed+13)
	scratch := core.NewHKQueryScratch(hk)
	t0 := time.Now()
	for i := 0; i < celeb.Len(); i++ {
		hk.Reach(celeb.S[i], celeb.T[i], scratch)
	}
	uncached := time.Since(t0)

	type cacheKey struct{ s, t graph.Vertex }
	c := cache.New[cacheKey, bool](cache.Config{Capacity: 1 << 13})
	probe := func(s, t graph.Vertex) (bool, error) { return hk.Reach(s, t, scratch), nil }
	for i := 0; i < celeb.Len(); i++ {
		s, t := celeb.S[i], celeb.T[i]
		c.Do(cacheKey{s, t}, func() (bool, error) { return probe(s, t) })
	}
	warm := c.Stats()
	t0 = time.Now()
	for i := 0; i < celeb.Len(); i++ {
		s, t := celeb.S[i], celeb.T[i]
		c.Do(cacheKey{s, t}, func() (bool, error) { return probe(s, t) })
	}
	cached := time.Since(t0)
	st := c.Stats()
	hits := st.Hits - warm.Hits
	total := hits + st.Misses - warm.Misses
	row := CacheRow{
		Dataset:      name,
		UncachedKQPS: float64(celeb.Len()) / uncached.Seconds() / 1000,
		CachedKQPS:   float64(celeb.Len()) / cached.Seconds() / 1000,
		Speedup:      uncached.Seconds() / cached.Seconds(),
	}
	if total > 0 {
		row.CelebHitPct = 100 * float64(hits) / float64(total)
	}
	return row, nil
}

func (r *Runner) mutateRow(name string, d *dataset, k int) (MutateRow, error) {
	ix, err := dynamic.New(d.g, dynamic.Options{
		K: k, Strategy: cover.DegreePrioritized, Seed: r.cfg.Seed, CompactRatio: 1e18,
	})
	if err != nil {
		return MutateRow{}, err
	}
	stream := workload.NewMutationStream(d.g, r.cfg.Seed+29, workload.DefaultMutationMix)
	sc := dynamic.NewQueryScratch()
	ops := max(r.cfg.Queries/10, 1000)
	var queries, mismatches int
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		op := stream.Next()
		switch op.Kind {
		case workload.OpQuery:
			got := ix.Reach(op.U, op.V, sc)
			queries++
			if queries%64 == 0 && got != stream.Reach(op.U, op.V, k) {
				mismatches++
			}
		case workload.OpAdd:
			if _, err := ix.Mutate([]graph.Edge{{Src: op.U, Dst: op.V}}, nil); err != nil {
				return MutateRow{}, err
			}
		case workload.OpRemove:
			if _, err := ix.Mutate(nil, []graph.Edge{{Src: op.U, Dst: op.V}}); err != nil {
				return MutateRow{}, err
			}
		}
	}
	return MutateRow{
		Dataset: name, K: k,
		KOPS:       float64(ops) / time.Since(t0).Seconds() / 1000,
		OracleErrs: mismatches,
	}, nil
}

// mutateDurableRow reruns the mutate workload with every batch journaled
// and fsynced (SyncAlways) into a scratch WAL directory before it applies
// — the full durability tax, measured against memKOPS from the in-memory
// row on the identical stream.
func (r *Runner) mutateDurableRow(name string, d *dataset, k int, memKOPS float64) (MutateDurableRow, error) {
	dir, err := os.MkdirTemp("", "kreach-bench-wal-")
	if err != nil {
		return MutateDurableRow{}, err
	}
	defer os.RemoveAll(dir)
	st, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return MutateDurableRow{}, err
	}
	defer st.Close()
	ix, _, _, err := st.Recover(d.g, dynamic.Options{
		K: k, Strategy: cover.DegreePrioritized, Seed: r.cfg.Seed, CompactRatio: 1e18,
	})
	if err != nil {
		return MutateDurableRow{}, err
	}
	stream := workload.NewMutationStream(d.g, r.cfg.Seed+29, workload.DefaultMutationMix)
	sc := dynamic.NewQueryScratch()
	ops := max(r.cfg.Queries/10, 1000)
	var queries, mismatches int
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		op := stream.Next()
		switch op.Kind {
		case workload.OpQuery:
			got := ix.Reach(op.U, op.V, sc)
			queries++
			if queries%64 == 0 && got != stream.Reach(op.U, op.V, k) {
				mismatches++
			}
		case workload.OpAdd:
			if _, err := ix.Mutate([]graph.Edge{{Src: op.U, Dst: op.V}}, nil); err != nil {
				return MutateDurableRow{}, err
			}
		case workload.OpRemove:
			if _, err := ix.Mutate(nil, []graph.Edge{{Src: op.U, Dst: op.V}}); err != nil {
				return MutateDurableRow{}, err
			}
		}
	}
	row := MutateDurableRow{
		Dataset: name, K: k,
		Sync:       wal.SyncAlways.String(),
		KOPS:       float64(ops) / time.Since(t0).Seconds() / 1000,
		OracleErrs: mismatches,
	}
	if row.KOPS > 0 {
		row.FsyncSlowdown = memKOPS / row.KOPS
	}
	return row, nil
}

func (r *Runner) neighborRow(ctx context.Context, name string, d *dataset, k int) (NeighborRow, error) {
	ix, err := core.Build(d.g, core.Options{K: k, Strategy: cover.DegreePrioritized, Seed: r.cfg.Seed})
	if err != nil {
		return NeighborRow{}, err
	}
	balls := max(r.cfg.Queries/10, 1000)
	stream := workload.NewNeighborStream(d.g, r.cfg.Seed+31, []int{k}, 0.5)
	queries := make([]workload.NeighborQuery, balls)
	for i := range queries {
		queries[i] = stream.Next()
	}
	sc := core.NewEnumScratch()
	members := 0
	var enumErr error
	idxTime := timeBest(3, func() {
		members = 0
		for _, q := range queries {
			res, _, err := ix.Enumerate(ctx, q.Src, core.EnumOptions{Direction: q.Dir}, sc)
			if err != nil {
				enumErr = err
				return
			}
			members += len(res)
		}
	})
	if enumErr != nil {
		return NeighborRow{}, enumErr
	}
	// The BFS baseline answers the same query end-to-end: traverse, then
	// materialize the bucketed member list the index path returns (a bare
	// traversal that only fills distance scratch would not be an answer).
	bfsScratch := graph.NewBFSScratch(d.g.NumVertices())
	var bfsOut []core.Neighbor
	bfsTime := timeBest(3, func() {
		for _, q := range queries {
			graph.KHopBFS(d.g, q.Src, q.K, q.Dir, bfsScratch)
			bfsOut = bfsOut[:0]
			for _, v := range bfsScratch.Visited()[1:] {
				bucket := core.BucketWithin
				if q.K >= 0 && int(bfsScratch.Dist(v)) == q.K {
					bucket = core.BucketFrontier
				}
				bfsOut = append(bfsOut, core.Neighbor{V: v, Bucket: bucket})
			}
		}
	})
	mismatches := 0
	for i, q := range queries {
		if i%16 != 0 {
			continue
		}
		res, _, err := ix.Enumerate(ctx, q.Src, core.EnumOptions{Direction: q.Dir}, sc)
		if err != nil {
			return NeighborRow{}, err
		}
		if !stream.MatchesBall(q, res) {
			mismatches++
		}
	}
	return NeighborRow{
		Dataset: name, K: k,
		AvgBall:     float64(members) / float64(balls),
		IndexKBalls: float64(balls) / idxTime.Seconds() / 1000,
		BFSKBalls:   float64(balls) / bfsTime.Seconds() / 1000,
		EnumSpeedup: bfsTime.Seconds() / idxTime.Seconds(),
		OracleErrs:  mismatches,
	}, nil
}
