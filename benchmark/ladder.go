package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kreach"
	"kreach/internal/bitvec"
	"kreach/internal/cache"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/server"
	"kreach/internal/wal"
)

// This file is the traced run. It drives one fixed list of operations up a
// ladder of entry points, from the innermost kernel to the outermost
// daemon, timing each rung from outside. A layer's own cost is its rung
// minus the rung below. The read ladder:
//
//	core.Index.Reach → kreach.Reacher → server handler (cache off, then
//	default) → real kreachd over loopback → kreach-router
//
// and the write ladder:
//
//	DynamicIndex.Mutate, beside the journal alone (append, then append +
//	fsync) → durable DynamicIndex.Mutate → server handler → kreachd →
//	kreach-router → visible on the follower
//
// Every rung is block-timed like the untraced passes; with the tracer on,
// sampled operations are additionally wrapped in a span, and running the
// in-process rungs both ways gives the tracing overhead. End-to-end numbers
// never come from here.

// perLayerUnits names every per-layer metric and its unit; BENCHMARK.json
// declares the same list, and a test keeps the two from drifting apart.
var perLayerUnits = map[string]string{
	"graph.load_s":                      "s",
	"cover.select_s":                    "s",
	"cover.size_ratio":                  "ratio",
	"core.build_rows_s":                 "s",
	"core.index_edges":                  "count",
	"core.index_load_s":                 "s",
	"core.index_save_s":                 "s",
	"core.reach_ns":                     "ns",
	"core.case4_share":                  "ratio",
	"workload.yes_share":                "ratio",
	"core.batch_scaling":                "ratio",
	"core.enum_ns_per_vertex":           "ns",
	"core.enum_bfs_fallback_share":      "ratio",
	"bitvec.row_scan_words_per_s":       "1/s",
	"kreach.reachk_overhead_ns":         "ns",
	"kreach.batch_overhead_ns_per_pair": "ns",
	"kreach.batch_allocs_per_pair":      "count",
	"dynamic.build_s":                   "s",
	"dynamic.mutate_us_per_edge":        "us",
	"dynamic.promoted_per_kmut":         "count",
	"dynamic.hub_mutate_ms":             "ms",
	"dynamic.reach_ns":                  "ns",
	"dynamic.read_stall_ratio":          "ratio",
	"dynamic.compact_s":                 "s",
	"wal.append_us":                     "us",
	"wal.bytes_per_edge":                "count",
	"wal.fsyncs_per_kmut":               "count",
	"wal.fsync_us":                      "us",
	"wal.recover_s":                     "s",
	"cache.hit_ratio":                   "ratio",
	"cache.evictions":                   "count",
	"cache.do_ns":                       "ns",
	"server.reach_handler_us":           "us",
	"server.reach_cached_handler_us":    "us",
	"server.batch_handler_ns_per_pair":  "ns",
	"server.batch_allocs_per_pair":      "count",
	"server.batch_bytes_per_pair":       "count",
	"server.neighbors_ns_per_vertex":    "ns",
	"server.mutate_handler_us":          "us",
	"http.loopback_us":                  "us",
	"http.probe_p50_us":                 "us",
	"http.probe_p99_us":                 "us",
	"kreachd.cpu_us_per_probe":          "us",
	"kreachd.cpu_ns_per_pair":           "ns",
	"kreachd.mutate_us":                 "us",
	"router.proxy_us":                   "us",
	"router.batch_ns_per_pair":          "ns",
	"router.cpu_ns_per_pair":            "ns",
	"router.mutate_us":                  "us",
	"router.legs_per_batch":             "count",
	"router.hedges":                     "count",
	"router.retries":                    "count",
	"router.fence_rejections":           "count",
	"feed.visible_lag_ms":               "ms",
	"feed.visible_lag_p90_ms":           "ms",
	"feed.records_per_sync":             "count",
	"obs.scrape_ms":                     "ms",
	"loadgen.cpu_share":                 "ratio",
	"loadgen.writer_late_ms":            "ms",
	"host.steal_pct":                    "%",
	"host.calib_drift":                  "ratio",
	"trace.overhead_ratio":              "ratio",
}

// Operation counts of the ladder at the default run length.
const (
	ladderKernelOps = 400_000 // pairs through the in-process read rungs
	ladderWireOps   = 1_500   // pairs through the handler and HTTP rungs
	ladderBatchOps  = 1 << 20 // pairs through the in-process batch rungs
	ladderWireBatch = 12      // wireBatch-pair bodies through the HTTP batch rungs
	ladderMutations = 48      // timed batches per write rung
	ladderHubEdges  = 20      // single edges into the biggest hub
	spanEveryKernel = 1024    // one in-process operation in this many gets a span
	spanEveryWire   = 16
)

// ladder carries the traced run's state from one section to the next.
type ladder struct {
	r   *runner
	tr  *tracer
	out map[string]float64
	dir string
	// Total time of the rungs that ran both with and without spans.
	tracedTotal, untracedTotal time.Duration

	// From buildAndLoad.
	graph     *kreach.Graph // as built, the base of every dynamic index
	loaded    *kreach.Graph // as loaded back from its file
	index     *kreach.Index // as loaded back from its file
	coverSize int
	e         *env // files, oracle and read traffic of the static rungs

	// From the read ladder's lower rungs, for the rungs above them.
	pairs, wirePairs           [][2]int32 // wirePairs is a prefix of pairs
	reachBodies                [][]byte   // POST /v1/reach bodies of wirePairs
	batchPairs, wireBatchPairs [][2]int32
	cachedHandlerTime          time.Duration // wirePairs through the handler, cache on
	daemonTime, daemonBatch    time.Duration // wirePairs / wireBatchPairs through kreachd

	plainDyn *kreach.DynamicIndex // the in-memory dynamic index
	plain    *env                 // its history
}

// count scales one of the ladder's operation counts with -seconds.
func (l *ladder) count(n int) int { return max(1, int(float64(n)*l.r.scale)) }

// sink keeps results of kernel calls alive.
var sink int

// rung runs op for 0..n-1 on the calling goroutine, block-timed. With a
// tracer, every every-th operation also gets a span; every rung samples
// the same operations, so a sampled operation has one span per rung.
func rung(tr *tracer, name, parent string, n, every int, op func(i int)) time.Duration {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if tr != nil && i%every == 0 {
			start := tr.begin()
			op(i)
			tr.end(name, parent, i, start)
		} else {
			op(i)
		}
	}
	return time.Since(t0)
}

// both runs a rung without spans and then with them, adds the pair to the
// overhead totals, and returns the traced time.
func (l *ladder) both(name, parent string, n, every int, op func(i int)) time.Duration {
	plain := rung(nil, name, parent, n, every, op)
	traced := rung(l.tr, name, parent, n, every, op)
	l.untracedTotal += plain
	l.tracedTotal += traced
	return traced
}

func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

func coverStrategy(c kreach.CoverStrategy) cover.Strategy {
	if c == kreach.DegreePrioritizedCover {
		return cover.DegreePrioritized
	}
	return cover.RandomEdge
}

// newHandler wraps one dataset in the serving layer, ready, as kreachd
// would. cacheEntries follows server.Config: 0 default, negative off.
func newHandler(g *kreach.Graph, re kreach.Reacher, wal *kreach.WAL, cacheEntries int) (*server.Server, error) {
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: datasetName, Graph: g, Reacher: re, WAL: wal}); err != nil {
		return nil, err
	}
	s := server.New(reg, server.Config{CacheEntries: cacheEntries})
	s.MarkReady()
	return s, nil
}

// allocsDuring reports the heap objects and bytes allocated while fn runs.
func allocsDuring(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// trace performs the traced run and returns every per-layer metric.
func (r *runner) trace(tracePath string) (map[string]float64, hostReport, error) {
	guard, err := startSentinel()
	if err != nil {
		return nil, hostReport{}, err
	}
	l := &ladder{r: r, tr: newTracer(), out: map[string]float64{}, dir: filepath.Join(r.workDir, "ladder")}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, hostReport{}, err
	}
	defer os.RemoveAll(l.dir)
	// Later sections reuse what earlier ones built. Last comes what would
	// disturb the oracle's history.
	for _, section := range []func() error{
		l.buildAndLoad, l.readsInProcess, l.readsThroughDaemon,
		l.writesInProcess, l.dynamicAsReader, l.throughTier, l.hubAndCompaction,
	} {
		if err := section(); err != nil {
			return nil, hostReport{}, err
		}
	}
	host, err := guard.finish()
	if err != nil {
		return nil, hostReport{}, err
	}
	l.out["loadgen.cpu_share"] = host.loadgenCPU
	l.out["host.steal_pct"] = host.stealPct
	l.out["host.calib_drift"] = host.calibDrift
	l.out["trace.overhead_ratio"] = float64(l.tracedTotal) / float64(l.untracedTotal)
	if err := l.tr.write(tracePath); err != nil {
		return nil, hostReport{}, err
	}
	return l.out, host, nil
}

// buildAndLoad times the layers under set-up and cold start one by one:
// cover, rows, save, graph load, index load.
func (l *ladder) buildAndLoad() error {
	sp, out := l.r.sp, l.out
	el := sp.generate()
	l.graph = el.toGraph()
	gi := l.graph.Internal()
	t0 := time.Now()
	set := cover.VertexCover(gi, coverStrategy(sp.cover), datasetSeed)
	out["cover.select_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	built, err := core.BuildWithCover(gi, core.Options{K: sp.k, Strategy: coverStrategy(sp.cover), Seed: datasetSeed}, set)
	if err != nil {
		return err
	}
	out["core.build_rows_s"] = time.Since(t0).Seconds()
	l.coverSize = set.Len()
	out["cover.size_ratio"] = float64(set.Len()) / float64(el.n)
	out["core.index_edges"] = float64(built.NumIndexEdges())

	e := &env{sp: sp, dir: l.dir, el: el, o: newOracle(el, liveBatches)}
	e.reads = newTraffic(e.o, sp.family, sp.k, sp.transport == viaLibrary, l.r.seed)
	e.graphPath, e.indexPath = filepath.Join(l.dir, "graph.krg"), filepath.Join(l.dir, "index.kri")
	l.e = e
	if err := writeFile(e.graphPath, l.graph.SaveBinary); err != nil {
		return err
	}
	t0 = time.Now()
	if err := writeFile(e.indexPath, built.WriteBinary); err != nil {
		return err
	}
	out["core.index_save_s"] = time.Since(t0).Seconds()

	t0 = time.Now()
	gf, err := os.Open(e.graphPath)
	if err != nil {
		return err
	}
	l.loaded, err = kreach.LoadBinary(gf)
	gf.Close()
	if err != nil {
		return err
	}
	out["graph.load_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	xf, err := os.Open(e.indexPath)
	if err != nil {
		return err
	}
	re, err := kreach.LoadAutoReacher(xf, l.loaded)
	xf.Close()
	if err != nil {
		return err
	}
	out["core.index_load_s"] = time.Since(t0).Seconds()
	var ok bool
	if l.index, ok = re.(*kreach.Index); !ok {
		return fmt.Errorf("saved index loaded as %T, want *kreach.Index", re)
	}
	return nil
}

// postRung sends prepared bodies to one URL, one after another.
func (l *ladder) postRung(name, parent string, c *http.Client, url string, bodies [][]byte, both bool) time.Duration {
	r := l.r
	op := func(i int) {
		status, _, err := post(c, url, bodies[i], nil)
		if err != nil || status != http.StatusOK {
			r.tally.fail(1, name+" request failed")
		}
	}
	r.tally.attempted += len(bodies)
	if both {
		return l.both(name, parent, len(bodies), spanEveryWire, op)
	}
	return rung(l.tr, name, parent, len(bodies), spanEveryWire, op)
}

// readsInProcess climbs the read ladder as far as it goes without a
// socket: kernel, public API, result cache, serving layer on a recorder;
// then batches and enumerations the same way.
func (l *ladder) readsInProcess() error {
	r, sp, out, e, ix := l.r, l.r.sp, l.out, l.e, l.index
	ctx := context.Background()
	kernel := ix.Internal()

	l.pairs = e.reads.pairs(l.count(ladderKernelOps))
	pairs := l.pairs
	l.wirePairs = pairs[:min(len(pairs), l.count(ladderWireOps))]
	answers := make([]int8, len(pairs))
	scratch := core.NewQueryScratch()
	case4 := 0
	for _, p := range pairs {
		if kernel.Classify(p[0], p[1]) == core.Case4 {
			case4++
		}
	}
	out["core.case4_share"] = float64(case4) / float64(len(pairs))

	kernelTime := l.both("core.Index.Reach", "kreach.Reacher", len(pairs), spanEveryKernel, func(i int) {
		if kernel.Reach(graph.Vertex(pairs[i][0]), graph.Vertex(pairs[i][1]), scratch) {
			answers[i] = 1
		} else {
			answers[i] = 0
		}
	})
	out["core.reach_ns"] = perOp(kernelTime, len(pairs), time.Nanosecond)
	r.checkProbes(e, pairs, answers, 0, sampleEvery)
	yes := 0
	for _, a := range answers {
		yes += int(a)
	}
	out["workload.yes_share"] = float64(yes) / float64(len(pairs))

	reacherTime := l.both("kreach.Reacher", "server.handler", len(pairs), spanEveryKernel, func(i int) {
		v, _, _ := ix.ReachK(ctx, int(pairs[i][0]), int(pairs[i][1]), kreach.UseIndexK)
		sink += int(v)
	})
	out["kreach.reachk_overhead_ns"] = perOp(reacherTime-kernelTime, len(pairs), time.Nanosecond)

	// The result cache on its own: the same pairs through Do, the probe
	// being the Reacher, so a miss costs a Reacher call plus the cache.
	results := cache.New[[2]int32, bool](cache.Config{})
	cacheTime := rung(l.tr, "cache.Do", "server.handler", len(pairs), spanEveryKernel, func(i int) {
		v, _, _ := results.Do(pairs[i], func() (bool, error) {
			v, _, err := ix.ReachK(ctx, int(pairs[i][0]), int(pairs[i][1]), kreach.UseIndexK)
			return v != kreach.No, err
		})
		if v {
			sink++
		}
	})
	out["cache.do_ns"] = perOp(cacheTime, len(pairs), time.Nanosecond)

	// The serving layer without a socket, result cache off and default.
	l.reachBodies = make([][]byte, len(l.wirePairs))
	for i, p := range l.wirePairs {
		l.reachBodies[i] = fmt.Appendf(nil, `{"graph":%q,"s":%d,"t":%d}`, datasetName, p[0], p[1])
	}
	uncached, err := newHandler(l.loaded, ix, nil, -1)
	if err != nil {
		return err
	}
	rec := newRecorderTarget(uncached, datasetName, 1)
	handlerTime := l.postRung("server.handler", "kreachd", rec.clients[0], rec.base+"/v1/reach", l.reachBodies, true)
	out["server.reach_handler_us"] = perOp(handlerTime, len(l.wirePairs), time.Microsecond)
	cached, err := newHandler(l.loaded, ix, nil, 0)
	if err != nil {
		return err
	}
	recCached := newRecorderTarget(cached, datasetName, 1)
	l.cachedHandlerTime = l.postRung("server.handler+cache", "kreachd", recCached.clients[0], recCached.base+"/v1/reach", l.reachBodies, false)
	out["server.reach_cached_handler_us"] = perOp(l.cachedHandlerTime, len(l.wirePairs), time.Microsecond)

	// Batches.
	l.batchPairs = e.reads.pairs(l.count(ladderBatchOps))
	batchPairs := l.batchPairs
	corePairs := make([]core.Pair, len(batchPairs))
	apiPairs := make([]kreach.Pair, len(batchPairs))
	for i, p := range batchPairs {
		corePairs[i] = core.Pair{S: graph.Vertex(p[0]), T: graph.Vertex(p[1])}
		apiPairs[i] = kreach.Pair{S: int(p[0]), T: int(p[1])}
	}
	coreOne := rung(l.tr, "core.ReachBatch", "kreach.ReachBatch", 1, 1, func(int) {
		got, _ := kernel.ReachBatch(ctx, corePairs, 1)
		sink += len(got)
	})
	coreAll := rung(nil, "", "", 1, 1, func(int) {
		got, _ := kernel.ReachBatch(ctx, corePairs, r.callers)
		sink += len(got)
	})
	out["core.batch_scaling"] = float64(coreOne) / float64(coreAll) // pairs/s at nproc ÷ at 1
	var apiOne time.Duration
	objects, _ := allocsDuring(func() {
		apiOne = rung(l.tr, "kreach.ReachBatch", "server.batch", 1, 1, func(int) {
			got, _ := ix.ReachBatch(ctx, apiPairs, kreach.BatchOptions{Parallelism: 1})
			sink += len(got)
		})
	})
	out["kreach.batch_overhead_ns_per_pair"] = perOp(apiOne-coreOne, len(batchPairs), time.Nanosecond)
	out["kreach.batch_allocs_per_pair"] = objects / float64(len(batchPairs))

	l.wireBatchPairs = batchPairs[:min(len(batchPairs), l.count(ladderWireBatch)*wireBatch)]
	var handlerBatch time.Duration
	var handlerReplies []batchReply
	objects, bytes := allocsDuring(func() { handlerBatch, handlerReplies = rec.batch(l.wireBatchPairs, wireBatch, 1, nil) })
	r.checkBatch(e, l.wireBatchPairs, handlerReplies, 0, false)
	out["server.batch_handler_ns_per_pair"] = perOp(handlerBatch, len(l.wireBatchPairs), time.Nanosecond)
	out["server.batch_allocs_per_pair"] = objects / float64(len(l.wireBatchPairs))
	out["server.batch_bytes_per_pair"] = bytes / float64(len(l.wireBatchPairs))

	// Enumerations.
	ballOps := e.reads.balls(sp.balls)
	lib, err := newLibTarget(ix)
	if err != nil {
		return err
	}
	took, ballReplies := lib.balls(ballOps, 1)
	vertices := r.checkBalls(e, ballOps, ballReplies, 0)
	out["core.enum_ns_per_vertex"] = perOp(took, max(1, vertices), time.Nanosecond)
	fallback := 0
	for _, op := range ballOps {
		if ix.EnumPath(int(op.v), kreach.UseIndexK, op.forward) == kreach.PathBFSFallback {
			fallback++
		}
	}
	out["core.enum_bfs_fallback_share"] = float64(fallback) / float64(len(ballOps))
	// Through the handler a ball comes back in pages, each page a fresh
	// enumeration, so the balls into celebrities stay out of this rung.
	wireBalls := newTraffic(e.o, sp.family, sp.k, false, r.seed).balls(max(1, sp.balls/8))
	took, ballReplies = rec.balls(wireBalls, 1)
	vertices = r.checkBalls(e, wireBalls, ballReplies, 0)
	out["server.neighbors_ns_per_vertex"] = perOp(took, max(1, vertices), time.Nanosecond)
	out["bitvec.row_scan_words_per_s"] = rowScan(l.coverSize, r.seed)
	return nil
}

// readsThroughDaemon is the rung above the handler: one real kreachd on
// the saved files, first with one caller and every request timed, then
// with all callers and the daemon's CPU time read on both sides.
func (l *ladder) readsThroughDaemon() error {
	r, out, e := l.r, l.out, l.e
	static, err := r.dep.static(e.graphPath, e.indexPath)
	if err != nil {
		return err
	}
	defer static.stop()
	direct := newWireTarget(static.url, datasetName, r.callers)
	defer direct.close()

	// The latency rung. Per-request clock reads are fine here because
	// nothing gated comes from it.
	lat := make([]time.Duration, len(l.wirePairs))
	r.tally.attempted += len(l.wirePairs)
	l.daemonTime = rung(l.tr, "kreachd", "kreach-router", len(l.wirePairs), spanEveryWire, func(i int) {
		start := time.Now()
		status, _, err := post(direct.clients[0], static.url+"/v1/reach", l.reachBodies[i], nil)
		lat[i] = time.Since(start)
		if err != nil || status != http.StatusOK {
			r.tally.fail(1, "kreachd request failed")
		}
	})
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	out["http.probe_p50_us"] = float64(lat[len(lat)/2]) / float64(time.Microsecond)
	out["http.probe_p99_us"] = float64(lat[len(lat)*99/100]) / float64(time.Microsecond)
	out["http.loopback_us"] = perOp(l.daemonTime-l.cachedHandlerTime, len(l.wirePairs), time.Microsecond)

	cpuDuring := func(fn func()) (time.Duration, error) {
		before, err := procCPU(static.pid)
		if err != nil {
			return 0, err
		}
		fn()
		after, err := procCPU(static.pid)
		return after - before, err
	}
	hot := e.reads.pairs(4 * len(l.wirePairs))
	cpu, err := cpuDuring(func() {
		_, got := direct.probe(hot, r.callers)
		r.checkProbes(e, hot, got, 0, sampleEvery)
	})
	if err != nil {
		return err
	}
	out["kreachd.cpu_us_per_probe"] = perOp(cpu, len(hot), time.Microsecond)
	var replies []batchReply
	l.daemonBatch, replies = direct.batch(l.wireBatchPairs, wireBatch, 1, nil)
	r.checkBatch(e, l.wireBatchPairs, replies, 0, false)
	cpu, err = cpuDuring(func() {
		_, replies := direct.batch(l.batchPairs, wireBatch, r.callers, nil)
		r.checkBatch(e, l.batchPairs, replies, 0, false)
	})
	if err != nil {
		return err
	}
	out["kreachd.cpu_ns_per_pair"] = perOp(cpu, len(l.batchPairs), time.Nanosecond)

	st, err := static.stats()
	if err != nil {
		return err
	}
	out["cache.hit_ratio"] = float64(st.Cache.Hits) / float64(max(1, st.Cache.Hits+st.Cache.Misses))
	out["cache.evictions"] = float64(st.Cache.Evictions)
	var scrapes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := getText(static.url + "/metrics"); err != nil {
			return err
		}
		scrapes = append(scrapes, float64(time.Since(t0))/float64(time.Millisecond))
	}
	out["obs.scrape_ms"] = median(scrapes)
	return static.failed()
}

// mutateRung applies the next n batches of we's stream through we.writes.
func (l *ladder) mutateRung(name, parent string, we *env, n int) (time.Duration, error) {
	ms := make([]*mutation, n)
	for i := range ms {
		ms[i] = we.stream.next()
	}
	took := rung(l.tr, name, parent, n, 4, func(i int) { we.writes.apply(ms[i]) })
	l.r.tally.attempted += n
	return took, we.settle(ms)
}

// newWriteEnv gives one write rung its own oracle and mutation stream
// (every rung's stream draws the same batches) and fills the live window.
func (l *ladder) newWriteEnv(writes target, readSeed uint64) (*env, error) {
	sp := l.r.sp
	we := &env{sp: sp, el: l.e.el, o: newOracle(l.e.el, liveBatches), writes: writes}
	we.reads = newTraffic(we.o, sp.family, sp.k, false, readSeed)
	we.stream = newMutationStream(we.o, l.r.seed)
	l.r.tally.attempted += liveBatches
	return we, we.fillWindow()
}

func (l *ladder) dynamicOptions() kreach.DynamicOptions {
	return kreach.DynamicOptions{K: l.r.sp.k, Cover: l.r.sp.cover, Seed: datasetSeed}
}

// writesInProcess climbs the write ladder as far as it goes without a
// socket: the dynamic index alone, the journal alone, both together, a
// restart, and the serving layer's mutation handler on top.
func (l *ladder) writesInProcess() error {
	r, out := l.r, l.out
	nMut := l.count(ladderMutations)
	edgesPerRung := float64(nMut * 2 * batchAdds)

	t0 := time.Now()
	plainDyn, err := kreach.NewDynamicIndex(l.graph, l.dynamicOptions())
	if err != nil {
		return err
	}
	out["dynamic.build_s"] = time.Since(t0).Seconds()
	l.plainDyn = plainDyn
	plainTarget, err := newLibTarget(plainDyn)
	if err != nil {
		return err
	}
	if l.plain, err = l.newWriteEnv(plainTarget, r.seed+1); err != nil {
		return err
	}
	promoted0 := plainDyn.DynStats().Promotions
	plainTime, err := l.mutateRung("dynamic.Mutate", "durable.Mutate", l.plain, nMut)
	if err != nil {
		return err
	}
	out["dynamic.mutate_us_per_edge"] = float64(plainTime) / float64(time.Microsecond) / edgesPerRung
	out["dynamic.promoted_per_kmut"] = 1000 * float64(plainDyn.DynStats().Promotions-promoted0) / edgesPerRung

	// The journal on its own: real batches appended to a store with no
	// index behind it, first without and then with the flush per record.
	payload := make([]*mutation, nMut)
	journalStream := newMutationStream(l.e.o, r.seed)
	for i := 0; i < liveBatches; i++ {
		journalStream.next() // the add-only batches that fill the window
	}
	journaled := 0
	for i := range payload {
		payload[i] = journalStream.next()
		journaled += len(payload[i].add) + len(payload[i].remove)
	}
	appendTime, appendStats, err := journalRung(l.tr, "wal.append", filepath.Join(l.dir, "journal-never"), wal.SyncNever, payload)
	if err != nil {
		return err
	}
	flushTime, flushStats, err := journalRung(l.tr, "wal.fsync", filepath.Join(l.dir, "journal-always"), wal.SyncAlways, payload)
	if err != nil {
		return err
	}
	out["wal.append_us"] = perOp(appendTime, nMut, time.Microsecond)
	out["wal.fsync_us"] = perOp(flushTime-appendTime, nMut, time.Microsecond)
	out["wal.bytes_per_edge"] = float64(appendStats.LogBytes) / float64(journaled)
	out["wal.fsyncs_per_kmut"] = 1000 * float64(flushStats.Syncs) / float64(journaled)

	// A durable index: journal, flush and index together, as the primary
	// runs them.
	durable := func() (*kreach.DynamicIndex, *kreach.WAL, error) {
		dyn, _, w, err := kreach.OpenDurableDynamicIndex(l.graph, l.dynamicOptions(),
			kreach.DurableOptions{Dir: filepath.Join(l.dir, "wal"), Sync: kreach.SyncAlways})
		return dyn, w, err
	}
	syncDyn, syncWAL, err := durable()
	if err != nil {
		return err
	}
	syncTarget, err := newLibTarget(syncDyn)
	if err != nil {
		return err
	}
	synced, err := l.newWriteEnv(syncTarget, r.seed+1)
	if err != nil {
		return err
	}
	if _, err := l.mutateRung("durable.Mutate", "server.edges", synced, nMut); err != nil {
		return err
	}
	if err := syncWAL.Close(); err != nil {
		return err
	}
	// A restart: reopen the same directory and replay its log.
	t0 = time.Now()
	recovered, recoveredWAL, err := durable()
	if err != nil {
		return err
	}
	out["wal.recover_s"] = time.Since(t0).Seconds()
	defer recoveredWAL.Close()
	// The recovered index continues the same history behind the serving
	// layer's mutation handler.
	edgesHandler, err := newHandler(l.graph, recovered, recoveredWAL, 0)
	if err != nil {
		return err
	}
	synced.writes = newRecorderTarget(edgesHandler, datasetName, 1)
	handlerMutate, err := l.mutateRung("server.edges", "kreachd.edges", synced, nMut)
	if err != nil {
		return err
	}
	out["server.mutate_handler_us"] = perOp(handlerMutate, nMut, time.Microsecond)
	return nil
}

// dynamicAsReader prices reading from the dynamic index: single probes
// against the static kernel's, and batches quiet against batches beside
// the paced writer.
func (l *ladder) dynamicAsReader() error {
	r, out, plain := l.r, l.out, l.plain
	ctx := context.Background()
	dyn := l.plainDyn
	dynPairs := l.pairs[:len(l.pairs)/4]
	dynTime := rung(l.tr, "dynamic.Reach", "", len(dynPairs), spanEveryKernel, func(i int) {
		v, _, _ := dyn.ReachK(ctx, int(dynPairs[i][0]), int(dynPairs[i][1]), kreach.UseIndexK)
		sink += int(v)
	})
	out["dynamic.reach_ns"] = perOp(dynTime, len(dynPairs), time.Nanosecond)
	quietPairs := plain.reads.pairs(r.sp.underWritePair)
	quietTime, quietReplies := plain.writes.batch(quietPairs, libBatch, max(1, r.callers-1), nil)
	r.checkBatch(plain, quietPairs, quietReplies, plain.applied, false)
	beside, late, err := r.underWritePass(plain)
	if err != nil {
		return err
	}
	out["dynamic.read_stall_ratio"] = beside / (float64(len(quietPairs)) / quietTime.Seconds())
	lateMS := make([]float64, len(late))
	for i, d := range late {
		lateMS[i] = float64(d) / float64(time.Millisecond)
	}
	out["loadgen.writer_late_ms"] = median(lateMS)
	return nil
}

// hubAndCompaction prices an edge at the graph's biggest hub, then a
// compaction. Neither is part of the oracle's history, so they come last.
func (l *ladder) hubAndCompaction() error {
	dyn := l.plainDyn
	hub := topDegree(l.e.o, 1)[0]
	rng := rand.New(rand.NewPCG(l.r.seed, 0x4b5))
	var hubTime time.Duration
	for i := 0; i < ladderHubEdges; i++ {
		u := rng.IntN(l.e.el.n)
		t0 := time.Now()
		if _, err := dyn.Mutate([][2]int{{u, int(hub)}}, nil); err != nil {
			return err
		}
		hubTime += time.Since(t0)
	}
	l.out["dynamic.hub_mutate_ms"] = perOp(hubTime, ladderHubEdges, time.Millisecond)
	t0 := time.Now()
	if _, _, err := dyn.Compact(nil); err != nil {
		return err
	}
	l.out["dynamic.compact_s"] = time.Since(t0).Seconds()
	return nil
}

// throughTier runs the rungs that need the replicated deployment: writes
// to the primary, through the router, and until the follower serves them;
// then reads through the router.
func (l *ladder) throughTier() error {
	r, sp, out := l.r, l.r.sp, l.out
	nMut := l.count(ladderMutations)
	t, err := bootTier(r.dep, l.e.graphPath, filepath.Join(l.dir, "tier-wal"), sp.k)
	if err != nil {
		return err
	}
	defer t.stop()
	primary := newWireTarget(t.primary.url, datasetName, 1)
	defer primary.close()
	routed := newWireTarget(t.router.url, datasetName, r.callers)
	defer routed.close()
	te, err := l.newWriteEnv(primary, r.seed+2)
	if err != nil {
		return err
	}
	te.tier, te.routed = t, routed

	primaryTime, err := l.mutateRung("kreachd.edges", "kreach-router.edges", te, nMut)
	if err != nil {
		return err
	}
	out["kreachd.mutate_us"] = perOp(primaryTime, nMut, time.Microsecond)
	te.writes = routed
	routedTime, err := l.mutateRung("kreach-router.edges", "feed.visible", te, nMut)
	if err != nil {
		return err
	}
	out["router.mutate_us"] = perOp(routedTime, nMut, time.Microsecond)

	feed0, err := t.primary.stats()
	if err != nil {
		return err
	}
	var lags []float64
	for i := 0; i < nMut; i++ {
		m := te.stream.next()
		start := l.tr.begin()
		te.writes.apply(m)
		acked := time.Now()
		r.tally.attempted++
		if err := te.settle([]*mutation{m}); err != nil {
			return err
		}
		if err := t.follower.awaitEpoch(m.acknowledged); err != nil {
			return err
		}
		lags = append(lags, float64(time.Since(acked))/float64(time.Millisecond))
		l.tr.end("feed.visible", "", i, start)
	}
	sort.Float64s(lags)
	out["feed.visible_lag_ms"] = lags[len(lags)/2]
	out["feed.visible_lag_p90_ms"] = lags[len(lags)*9/10]
	feed1, err := t.primary.stats()
	if err != nil {
		return err
	}
	w0, w1 := feed0.Datasets[0].WAL, feed1.Datasets[0].WAL
	if w0 == nil || w1 == nil {
		return fmt.Errorf("primary reports no WAL section")
	}
	out["feed.records_per_sync"] = float64(w1.FeedRecords-w0.FeedRecords) / float64(max(1, w1.FeedRequests-w0.FeedRequests))

	// Reads through the router; every replica serves the latest state.
	if err := te.quiesce(); err != nil {
		return err
	}
	metrics0, err := getText(t.router.url + "/metrics")
	if err != nil {
		return err
	}
	routedReach := l.postRung("kreach-router", "", routed.clients[0], t.router.url+"/v1/reach", l.reachBodies, false)
	out["router.proxy_us"] = perOp(routedReach-l.daemonTime, len(l.reachBodies), time.Microsecond)
	routedBatch, replies := routed.batch(l.wireBatchPairs, wireBatch, 1, nil)
	r.checkBatch(te, l.wireBatchPairs, replies, te.applied, false)
	out["router.batch_ns_per_pair"] = perOp(routedBatch-l.daemonBatch, len(l.wireBatchPairs), time.Nanosecond)
	cpu0, err := procCPU(t.router.pid)
	if err != nil {
		return err
	}
	busy := te.reads.pairs(8 * len(l.wireBatchPairs))
	_, replies = routed.batch(busy, wireBatch, r.callers, nil)
	cpu1, err := procCPU(t.router.pid)
	if err != nil {
		return err
	}
	r.checkBatch(te, busy, replies, te.applied, false)
	out["router.cpu_ns_per_pair"] = perOp(cpu1-cpu0, len(busy), time.Nanosecond)
	metrics1, err := getText(t.router.url + "/metrics")
	if err != nil {
		return err
	}
	delta := func(family string) float64 { return scrapeCounter(metrics1, family) - scrapeCounter(metrics0, family) }
	batches := float64((len(l.wireBatchPairs) + len(busy)) / wireBatch)
	out["router.legs_per_batch"] = delta("kreach_router_legs_total") / batches
	out["router.hedges"] = delta("kreach_router_hedges_total")
	out["router.retries"] = delta("kreach_router_retries_total")
	out["router.fence_rejections"] = delta("kreach_router_fence_rejections_total")
	return t.failed()
}

// journalRung appends the batches to a fresh write-ahead log with nothing
// behind it. The store insists on recovering an index before it accepts
// appends; a two-vertex graph satisfies it at no cost.
func journalRung(tr *tracer, name, dir string, sync wal.SyncPolicy, batches []*mutation) (time.Duration, wal.StoreStats, error) {
	store, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		return 0, wal.StoreStats{}, err
	}
	defer store.Close()
	if _, _, _, err := store.Recover(graph.FromEdges(2, nil), dynamic.Options{K: 1}); err != nil {
		return 0, wal.StoreStats{}, err
	}
	before := store.Stats()
	toEdges := func(es []edge) []graph.Edge {
		out := make([]graph.Edge, len(es))
		for i, e := range es {
			out[i] = graph.Edge{Src: e.u, Dst: e.v}
		}
		return out
	}
	adds, removes := make([][]graph.Edge, len(batches)), make([][]graph.Edge, len(batches))
	for i, m := range batches {
		adds[i], removes[i] = toEdges(m.add), toEdges(m.remove)
	}
	var firstErr error
	took := rung(tr, name, "durable.Mutate", len(batches), 4, func(i int) {
		if err := store.Append(uint64(i+1), adds[i], removes[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	after := store.Stats()
	after.LogBytes -= before.LogBytes
	after.Syncs -= before.Syncs
	return took, after, firstErr
}

// rowScan times the dense-row kernel on rows as wide as the workload's
// cover: bitplane words scanned per second by CountLEMasked.
func rowScan(lanes int, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 0xb17))
	const rows = 64
	rowSet := make([]bitvec.WeightRow, rows)
	for i := range rowSet {
		rowSet[i] = bitvec.NewWeightRow(lanes)
		for w := range rowSet[i].B0 {
			rowSet[i].B0[w], rowSet[i].B1[w] = rng.Uint64(), rng.Uint64()
		}
	}
	mask := make([]uint64, bitvec.RowWords(lanes))
	for w := range mask {
		mask[w] = rng.Uint64()
	}
	reps := max(1, 20_000_000/(rows*len(mask)))
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, row := range rowSet {
			sink += row.CountLEMasked(mask, 1)
		}
	}
	words := float64(reps) * rows * float64(2*len(mask))
	return words / time.Since(t0).Seconds()
}
