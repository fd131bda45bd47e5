package server

import (
	"net/http"
	"runtime"

	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/obs"
	"kreach/internal/wal"
)

// This file wires every instrument of the serving stack into one
// obs.Registry and renders it at GET /metrics: the server's own request
// histograms, the result cache's counters, the core kernels' batch and
// enumeration counters, the WAL and dynamic-index maintenance histograms,
// per-dataset gauges and Go runtime health. State owned elsewhere (cache
// shards, RCU dataset snapshots, package-global core counters) surfaces
// through scrape-time collectors, so /metrics always reflects the state of
// the instant it is scraped — including datasets swapped in after startup.

// MetricCatalog lists every metric family the server exposes, in
// exposition (sorted) order. The catalog is an API: docs/OBSERVABILITY.md
// documents each name and the obs-smoke gate asserts a live /metrics
// scrape carries all of them from the first scrape on.
func MetricCatalog() []string {
	return []string{
		"kreach_batch_pairs_total",
		"kreach_batch_runs_total",
		"kreach_batch_steals_total",
		"kreach_batch_worker_busy_seconds_total",
		"kreach_cache_capacity",
		"kreach_cache_collapsed_total",
		"kreach_cache_entries",
		"kreach_cache_evictions_total",
		"kreach_cache_hits_total",
		"kreach_cache_misses_total",
		"kreach_dataset_edges",
		"kreach_dataset_epoch",
		"kreach_dataset_vertices",
		"kreach_datasets",
		"kreach_dynamic_compact_seconds",
		"kreach_dynamic_mutate_seconds",
		"kreach_enum_balls_total",
		"kreach_gc_cycles_total",
		"kreach_gc_pause_seconds_total",
		"kreach_gomaxprocs",
		"kreach_goroutines",
		"kreach_heap_alloc_bytes",
		"kreach_ready",
		"kreach_replication_lag_epochs",
		"kreach_replication_lag_seconds",
		"kreach_replication_peak_lag_epochs",
		"kreach_replication_records_applied_total",
		"kreach_replication_snapshots_loaded_total",
		"kreach_replication_sync_errors_total",
		"kreach_request_duration_seconds",
		"kreach_requests_in_flight",
		"kreach_server_build_info",
		"kreach_server_start_time_seconds",
		"kreach_slow_queries_total",
		"kreach_wal_append_seconds",
		"kreach_wal_checkpoint_seconds",
		"kreach_wal_feed_records_total",
		"kreach_wal_feed_requests_total",
		"kreach_wal_feed_snapshots_total",
		"kreach_wal_fsync_seconds",
	}
}

// serverMetrics holds the per-server instruments; everything else reaches
// the registry through collectors or adopted package-global histograms.
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.HistogramVec // endpoint, dataset, outcome
	inFlight *obs.Gauge
	slow     *obs.Counter
	ready    *obs.Gauge
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.HistogramVec("kreach_request_duration_seconds",
			"Request latency by endpoint, dataset and outcome (ok/error/cancelled/cache-hit).",
			"endpoint", "dataset", "outcome"),
		inFlight: r.Gauge("kreach_requests_in_flight",
			"Instrumented requests currently being served."),
		slow: r.Counter("kreach_slow_queries_total",
			"Queries that exceeded the slow-query threshold (traced at /v1/debug/slow)."),
		ready: r.Gauge("kreach_ready",
			"1 once every dataset is published and /readyz serves 200."),
	}

	// Maintenance latencies live as package-global histograms next to the
	// code they time; the registry adopts them so one scrape carries them.
	r.RegisterHistogram("kreach_wal_append_seconds",
		"WAL durable-append latency (encode, write, and fsync under sync=always).", wal.AppendLatency)
	r.RegisterHistogram("kreach_wal_fsync_seconds",
		"WAL fsync latency alone (the disk's share of append).", wal.FsyncLatency)
	r.RegisterHistogram("kreach_wal_checkpoint_seconds",
		"WAL checkpoint latency (snapshot write, rename, log truncate).", wal.CheckpointLatency)
	r.RegisterHistogram("kreach_dynamic_mutate_seconds",
		"Dynamic-index mutation-batch latency (journal append plus row repair).", dynamic.MutateLatency)
	r.RegisterHistogram("kreach_dynamic_compact_seconds",
		"Dynamic-index compaction latency (materialize, rebuild, checkpoint, publish).", dynamic.CompactLatency)

	// Replication families are registered empty so the catalog holds from
	// the first scrape on any role; collectReplication fills in per-dataset
	// samples on primaries (feed counters) and followers (lag accounting).
	// Help strings must match the collector's exactly — same-named families
	// merge by name at exposition time.
	r.GaugeVec("kreach_replication_lag_epochs", helpReplLagEpochs, "dataset")
	r.GaugeVec("kreach_replication_lag_seconds", helpReplLagSeconds, "dataset")
	r.GaugeVec("kreach_replication_peak_lag_epochs", helpReplPeakLag, "dataset")
	r.CounterVec("kreach_replication_records_applied_total", helpReplRecords, "dataset")
	r.CounterVec("kreach_replication_snapshots_loaded_total", helpReplSnapshots, "dataset")
	r.CounterVec("kreach_replication_sync_errors_total", helpReplSyncErrors, "dataset")
	r.CounterVec("kreach_wal_feed_requests_total", helpFeedRequests, "dataset")
	r.CounterVec("kreach_wal_feed_snapshots_total", helpFeedSnapshots, "dataset")
	r.CounterVec("kreach_wal_feed_records_total", helpFeedRecords, "dataset")

	r.AddCollector(s.collectCache)
	r.AddCollector(collectCore)
	r.AddCollector(s.collectDatasets)
	r.AddCollector(s.collectReplication)
	r.AddCollector(s.collectIdentity)
	r.AddCollector(collectRuntime)
	return m
}

// Replication metric help strings, shared between registration (empty
// families) and collection (live samples) so the merged family keeps one
// help line.
const (
	helpReplLagEpochs  = "Epochs the follower's durable cursor trails the primary's newest known epoch."
	helpReplLagSeconds = "Seconds since the follower last stood at the primary's newest epoch (0 when caught up)."
	helpReplPeakLag    = "Worst epoch lag the follower has ever observed."
	helpReplRecords    = "Replicated WAL records applied by the follower."
	helpReplSnapshots  = "Full snapshots shipped from the primary and adopted by the follower."
	helpReplSyncErrors = "Failed replication sync cycles (primary unreachable, torn stream, bad frame)."
	helpFeedRequests   = "WAL feed chunks served to followers."
	helpFeedSnapshots  = "WAL feed chunks answered with a full snapshot (cursor predates the retained log)."
	helpFeedRecords    = "WAL records shipped through the feed."
)

// collectReplication emits replication progress per dataset at scrape time:
// feed counters for any dataset streaming its WAL (primaries, and durable
// followers re-serving their own log) and lag accounting for follower
// datasets. Datasets without a WAL or follower contribute no samples; the
// families themselves are registered empty so they never vanish.
func (s *Server) collectReplication(e *obs.Emitter) {
	for _, name := range s.reg.Names() {
		d, err := s.reg.Lookup(name)
		if err != nil {
			continue
		}
		labels := map[string]string{"dataset": name}
		if d.WAL != nil {
			ws := d.WAL.Stats()
			e.Counter("kreach_wal_feed_requests_total", helpFeedRequests, labels, float64(ws.FeedRequests))
			e.Counter("kreach_wal_feed_snapshots_total", helpFeedSnapshots, labels, float64(ws.FeedSnapshots))
			e.Counter("kreach_wal_feed_records_total", helpFeedRecords, labels, float64(ws.FeedRecords))
		}
		if d.Follower != nil {
			fs := d.Follower.Status()
			e.Gauge("kreach_replication_lag_epochs", helpReplLagEpochs, labels, float64(fs.LagEpochs))
			e.Gauge("kreach_replication_lag_seconds", helpReplLagSeconds, labels, fs.LagSeconds)
			e.Gauge("kreach_replication_peak_lag_epochs", helpReplPeakLag, labels, float64(fs.PeakLagEpochs))
			e.Counter("kreach_replication_records_applied_total", helpReplRecords, labels, float64(fs.RecordsApplied))
			e.Counter("kreach_replication_snapshots_loaded_total", helpReplSnapshots, labels, float64(fs.SnapshotsLoaded))
			e.Counter("kreach_replication_sync_errors_total", helpReplSyncErrors, labels, float64(fs.SyncErrors))
		}
	}
}

// collectIdentity emits the replica-identity families: a constant-1 info
// gauge whose labels carry the process identity (the Prometheus *_info
// idiom — join on instance_id to tell replicas apart) and the process
// start time, from which dashboards derive uptime and restart detection.
func (s *Server) collectIdentity(e *obs.Emitter) {
	e.Gauge("kreach_server_build_info",
		"Constant 1; labels identify the serving process (instance id, Go version).",
		map[string]string{
			"instance_id": s.idBase,
			"go_version":  runtime.Version(),
		}, 1)
	e.Gauge("kreach_server_start_time_seconds",
		"Unix time the serving process started.",
		nil, float64(s.startTime.UnixNano())/1e9)
}

// collectCache surfaces the result cache's shard counters. A server with
// caching disabled still emits the families (all zero): the catalog does
// not shrink with configuration.
func (s *Server) collectCache(e *obs.Emitter) {
	var st cacheStatsView
	if s.cache != nil {
		cs := s.cache.Stats()
		st = cacheStatsView{cs.Hits, cs.Misses, cs.Evictions, cs.Collapsed, cs.Entries, cs.Capacity}
	}
	e.Counter("kreach_cache_hits_total", "Result-cache hits (resident entries).", nil, float64(st.hits))
	e.Counter("kreach_cache_misses_total", "Result-cache misses (probes run).", nil, float64(st.misses))
	e.Counter("kreach_cache_evictions_total", "Result-cache entries displaced by capacity pressure.", nil, float64(st.evictions))
	e.Counter("kreach_cache_collapsed_total", "Result-cache callers collapsed onto an in-flight probe.", nil, float64(st.collapsed))
	e.Gauge("kreach_cache_entries", "Result-cache resident entries.", nil, float64(st.entries))
	e.Gauge("kreach_cache_capacity", "Result-cache entry budget.", nil, float64(st.capacity))
}

type cacheStatsView struct {
	hits, misses, evictions, collapsed uint64
	entries, capacity                  int
}

// collectCore surfaces the kernel-side counters: the batch executor's
// run/pair/steal totals with per-worker busy time, and the enumeration
// engine's execution-path counts. Worker slots are emitted only when they
// have accumulated time (slot 0 always, so the family never vanishes).
func collectCore(e *obs.Emitter) {
	bm := core.ReadBatchMetrics()
	e.Counter("kreach_batch_runs_total", "Batch-executor runs (ReachBatch invocations).", nil, float64(bm.Runs))
	e.Counter("kreach_batch_pairs_total", "Pairs submitted across batch-executor runs.", nil, float64(bm.Pairs))
	e.Counter("kreach_batch_steals_total", "Successful work-steals between batch workers.", nil, float64(bm.Steals))
	for w, ns := range bm.WorkerBusyNs {
		if ns == 0 && w != 0 {
			continue
		}
		e.Counter("kreach_batch_worker_busy_seconds_total",
			"Cumulative busy time per batch worker slot.",
			map[string]string{"worker": itoa(w)}, float64(ns)/1e9)
	}
	em := core.ReadEnumMetrics()
	help := "Neighborhood enumerations by execution path."
	e.Counter("kreach_enum_balls_total", help, map[string]string{"path": core.PathCoverRow}, float64(em.CoverRow))
	e.Counter("kreach_enum_balls_total", help, map[string]string{"path": core.PathBFSFallback}, float64(em.BFSFallback))
}

// collectDatasets emits one gauge set per registered dataset, resolved
// through the RCU registry at scrape time so swapped-in snapshots report
// their own epochs.
func (s *Server) collectDatasets(e *obs.Emitter) {
	names := s.reg.Names()
	e.Gauge("kreach_datasets", "Registered datasets.", nil, float64(len(names)))
	for _, name := range names {
		d, err := s.reg.Lookup(name)
		if err != nil {
			continue
		}
		labels := map[string]string{"dataset": name}
		e.Gauge("kreach_dataset_epoch", "Current snapshot epoch per dataset.", labels, float64(d.Epoch()))
		e.Gauge("kreach_dataset_vertices", "Vertices per dataset (base graph).", labels, float64(d.Graph.NumVertices()))
		e.Gauge("kreach_dataset_edges", "Edges per dataset (base graph).", labels, float64(d.Graph.NumEdges()))
	}
}

// collectRuntime emits Go runtime health: goroutines, heap, GC.
func collectRuntime(e *obs.Emitter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge("kreach_goroutines", "Live goroutines.", nil, float64(runtime.NumGoroutine()))
	e.Gauge("kreach_gomaxprocs", "GOMAXPROCS.", nil, float64(runtime.GOMAXPROCS(0)))
	e.Gauge("kreach_heap_alloc_bytes", "Heap bytes allocated and in use.", nil, float64(ms.HeapAlloc))
	e.Counter("kreach_gc_cycles_total", "Completed GC cycles.", nil, float64(ms.NumGC))
	e.Counter("kreach_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", nil, float64(ms.PauseTotalNs)/1e9)
}

// itoa is strconv.Itoa for the small non-negative ints labels use, without
// pulling strconv into the hot-ish collector path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WritePrometheus(w)
}

// runtimeInfo is the runtime section of /v1/stats — the same health
// numbers collectRuntime exposes, in JSON for humans and scripts.
type runtimeInfo struct {
	Goroutines     int     `json:"goroutines"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
}

func readRuntimeInfo() runtimeInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeInfo{
		Goroutines:     runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		GCCycles:       ms.NumGC,
		GCPauseTotalMs: float64(ms.PauseTotalNs) / 1e6,
	}
}
