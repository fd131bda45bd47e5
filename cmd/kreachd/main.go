// Command kreachd is the k-reach query-serving daemon: it loads one or more
// named graph+index datasets at startup and serves k-hop reachability over
// an HTTP/JSON API (see kreach/internal/server for the endpoints).
//
// Usage:
//
//	kreachd -listen :7325 \
//	    -dataset 'social,graph=soc.txt,index=soc.kri' \
//	    -dataset 'cite,graph=cite.krg,k=8,cover=degree,seed=7' \
//	    -dataset 'ladder,graph=g.txt,rungs=2+4+8'
//
// Each -dataset flag is "name,key=value,...". Keys:
//
//	graph=PATH   edge list or .krg binary (required)
//	index=PATH   prebuilt index from `kreach build` (plain or (h,k),
//	             auto-detected); exclusive with k/h/rungs
//	k=K          build a k-reach index at startup (-1 = classic reachability;
//	             default when no index options are given)
//	h=H          with k: build the (h,k)-reach variant instead
//	rungs=A+B+C  build a multi-rung ladder for per-query k
//	cover=S      degree (default), random or greedy
//	seed=N       cover seed (default 1)
//
// The first dataset is the default for requests that omit "graph". On
// SIGINT/SIGTERM the daemon drains before exiting: /readyz flips to 503
// immediately (so routers and load balancers stop sending traffic), every
// request that arrives during the -drain-grace window is still answered,
// and only then does the listener close and in-flight work finish under a
// shutdown deadline — a rolling restart behind kreach-router is
// zero-error.
//
// /v1/reach results are cached in a sharded LRU keyed by (epoch, s, t, k)
// (/v1/batch goes straight to the index); -cache sizes it (negative disables) and -cacheshards overrides the shard
// count. POST /v1/datasets/{name}/reload re-reads a dataset's files and
// atomically swaps the new snapshot in: in-flight queries finish against
// the old snapshot, and the epoch bump makes its cache entries
// unreachable (LRU churn then evicts them).
//
// -pprof ADDR serves net/http/pprof on a separate address (keep it on
// loopback); the query listener never exposes profiling endpoints.
//
// Observability: the daemon logs structured lines (logfmt-style text by
// default, -log-format json for machines) at -log-level, including one
// access-log line per request. GET /metrics serves a Prometheus text
// exposition, GET /healthz answers liveness, GET /readyz readiness (200
// only once every dataset — WAL recovery included — is published), and
// queries slower than -slow-query-threshold are traced at
// GET /v1/debug/slow. See docs/OBSERVABILITY.md for the metric catalog.
//
// With -mutable every dataset is served as a dynamic k-reach index that
// accepts online edge mutations: POST /v1/datasets/{name}/edges applies a
// batched add/remove, POST /v1/datasets/{name}/compact merges the overlay
// into a fresh snapshot, and the index self-compacts once the overlay
// outgrows the base. Mutable datasets require a finite k= (the
// incremental maintenance is k-hop bounded) and exclude index=, h= and
// rungs=.
//
// -wal-dir DIR makes mutable datasets durable: each dataset journals its
// mutation batches to a write-ahead log under DIR/<name>/ (fsynced per
// -fsync always|never), compactions write snapshots there and truncate the
// log, and on startup each dataset recovers to exactly its pre-crash state
// — snapshot plus log replay, torn tails truncated — before the first
// request is served. Durable datasets are not reloadable (the durability
// directory, not the spec files, is their source of truth); restart the
// daemon to re-read specs. -wal-retain-epochs N keeps the newest N records
// in the log across checkpoints so followers slightly behind the last
// checkpoint catch up from records instead of re-shipping a snapshot.
//
// -follow URL turns the daemon into a read-only replica: every dataset
// (same specs as the primary — name, graph seed and k= must match)
// replicates from the primary kreachd at URL via its WAL feed
// (GET /v1/datasets/{name}/wal), applying the primary's records under the
// primary's exact epochs. With -wal-dir the follower journals what it
// applies and resumes from its own last durable epoch after a restart;
// without it a restart re-ships a snapshot. Followers reject local writes
// (POST edges/compact answer 409) and gate /readyz on having caught up to
// the primary at least once. -follow excludes -mutable; -follow-poll sets
// the feed long-poll duration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kreach"
	"kreach/internal/server"
)

// logger is the process-wide structured logger, configured from -log-level
// and -log-format before anything that logs runs.
var logger = slog.Default()

func main() {
	var (
		listen      = flag.String("listen", ":7325", "address to serve HTTP on")
		parallelism = flag.Int("parallelism", 0, "batch worker pool size (0 = GOMAXPROCS)")
		maxBatch    = flag.Int("maxbatch", server.DefaultMaxBatch, "maximum pairs per /v1/batch request")
		cacheSize   = flag.Int("cache", 0, "result cache entries, rounded to powers of two (0 = default, negative = disabled)")
		cacheShards = flag.Int("cacheshards", 0, "result cache shard count (0 = derived from GOMAXPROCS)")
		mutable     = flag.Bool("mutable", false, "serve datasets as dynamic indexes accepting edge mutations (requires k=, excludes index=/h=/rungs=)")
		walDir      = flag.String("wal-dir", "", "durability root for -mutable or -follow datasets: write-ahead log + snapshots under DIR/<name>/, with crash recovery on startup; empty = in-memory")
		walRetain   = flag.Int("wal-retain-epochs", 0, "keep the newest N WAL records across checkpoints so followers resume from records instead of snapshots (0 = truncate fully)")
		follow      = flag.String("follow", "", "run as a read-only replica of the primary kreachd at this base URL (e.g. http://host:7325); excludes -mutable")
		followPoll  = flag.Duration("follow-poll", server.DefaultFollowerPollWait, "feed long-poll duration a caught-up follower asks the primary to hold")
		fsync       = flag.String("fsync", "always", "WAL fsync policy: 'always' (acknowledged mutations survive crashes) or 'never' (OS writeback)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error (per-request access logs are info)")
		logFormat   = flag.String("log-format", "text", "log encoding: 'text' (logfmt-style) or 'json'")
		slowQuery   = flag.Duration("slow-query-threshold", server.DefaultSlowQueryThreshold, "trace queries slower than this at GET /v1/debug/slow (negative disables)")
		drainGrace  = flag.Duration("drain-grace", 2*time.Second, "on SIGTERM, keep serving with /readyz=503 this long before closing the listener, so load balancers stop routing here first")
		specs       []string
	)
	flag.Func("dataset", "dataset spec 'name,graph=PATH[,index=PATH][,k=K][,h=H][,rungs=A+B+C][,cover=S][,seed=N]' (repeatable)", func(s string) error {
		specs = append(specs, s)
		return nil
	})
	flag.Parse()
	if err := setupLogger(*logLevel, *logFormat); err != nil {
		fatal(err)
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "kreachd: at least one -dataset is required")
		flag.Usage()
		os.Exit(2)
	}
	var sync kreach.SyncPolicy
	switch *fsync {
	case "always":
		sync = kreach.SyncAlways
	case "never":
		sync = kreach.SyncNever
	default:
		fatal(fmt.Errorf("-fsync must be 'always' or 'never', got %q", *fsync))
	}
	if *follow != "" && *mutable {
		fatal(errors.New("-follow excludes -mutable (a follower's state is driven by the primary's feed; send writes to the primary)"))
	}
	if *walDir != "" && !*mutable && *follow == "" {
		fatal(errors.New("-wal-dir requires -mutable or -follow (only dynamic datasets journal mutations)"))
	}
	if *walRetain < 0 {
		fatal(errors.New("-wal-retain-epochs must be >= 0"))
	}
	if *walRetain > 0 && *walDir == "" {
		fatal(errors.New("-wal-retain-epochs requires -wal-dir (retention is a property of the on-disk log)"))
	}

	// Recovery runs here, dataset by dataset, before the registry is handed
	// to the server — no request can observe a half-recovered dataset.
	reg := server.NewRegistry()
	var wals []*kreach.WAL
	var followers []*server.Follower
	for _, spec := range specs {
		var d *server.Dataset
		var err error
		if *follow != "" {
			var f *server.Follower
			d, f, err = loadFollower(spec, *follow, *followPoll, *walDir, sync, *walRetain, reg)
			if err == nil {
				followers = append(followers, f)
			}
		} else {
			d, err = loadDataset(spec, *mutable, *walDir, sync, *walRetain)
		}
		if err != nil {
			fatal(err)
		}
		if err := reg.Add(d); err != nil {
			fatal(err)
		}
		if d.WAL != nil {
			wals = append(wals, d.WAL)
		}
		logDataset(d)
	}

	app := server.New(reg, server.Config{
		Parallelism:        *parallelism,
		MaxBatch:           *maxBatch,
		CacheEntries:       *cacheSize,
		CacheShards:        *cacheShards,
		Logger:             logger,
		SlowQueryThreshold: *slowQuery,
	})
	srv := &http.Server{
		Addr:              *listen,
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds the whole request read so a client trickling a
		// large /v1/batch body cannot pin a goroutine indefinitely.
		ReadTimeout: time.Minute,
		IdleTimeout: 2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// Profiling stays off the query listener: a separate mux on a
		// separate (typically loopback-only) address, so exposing the API
		// never exposes the profiler. Registered explicitly rather than via
		// the net/http/pprof import side effect on DefaultServeMux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof server failed", "error", err)
			}
		}()
	}

	// Listen explicitly so the real bound address — not the flag value — is
	// logged; with -listen 127.0.0.1:0 (tests, ephemeral deployments) the
	// flag alone never reveals the port.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	if len(followers) > 0 {
		// Replication runs for the life of the process; readiness waits until
		// every follower has stood at its primary's epoch at least once, so a
		// replica never reports ready while serving stale answers. Queries
		// still work during catch-up — routers just don't send traffic yet.
		for _, f := range followers {
			go f.Run(ctx)
		}
		go func() {
			for _, f := range followers {
				if err := f.WaitCaughtUp(ctx); err != nil {
					return
				}
			}
			app.MarkReady()
			logger.Info("followers caught up", "primary", *follow, "datasets", len(followers))
		}()
	} else {
		// Every dataset — WAL recovery included — is loaded and published, so
		// the process is ready the moment it starts accepting connections.
		app.MarkReady()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "datasets", len(reg.Names()))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: first flip /readyz to 503 so routers and load
	// balancers stop sending new traffic, keep answering everything that
	// still arrives for the grace window, then close the listener and let
	// in-flight requests finish under the shutdown deadline. A replica
	// restarted this way behind kreach-router produces zero client-visible
	// errors: by the time the listener closes, nothing is routing here.
	app.StartDrain()
	logger.Info("draining", "grace", *drainGrace)
	if *drainGrace > 0 {
		select {
		case err := <-errc:
			fatal(err)
		case <-time.After(*drainGrace):
		}
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	// In-flight mutations have drained with the requests; release the log
	// file handles.
	for _, w := range wals {
		if err := w.Close(); err != nil {
			logger.Error("closing wal", "error", err)
		}
	}
}

// setupLogger builds the process logger from the -log-level/-log-format
// flags and installs it as both the package logger and slog's default.
func setupLogger(level, format string) error {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return fmt.Errorf("-log-level must be debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("-log-format must be 'text' or 'json', got %q", format)
	}
	logger = slog.New(h)
	slog.SetDefault(logger)
	return nil
}

// datasetSpec is one parsed -dataset flag.
type datasetSpec struct {
	name      string
	graphPath string
	indexPath string
	k         int
	haveK     bool
	h         int
	rungs     []int
	cover     kreach.CoverStrategy
	seed      uint64
}

func parseSpec(raw string) (datasetSpec, error) {
	sp := datasetSpec{cover: kreach.DegreePrioritizedCover, seed: 1}
	parts := strings.Split(raw, ",")
	sp.name = strings.TrimSpace(parts[0])
	if sp.name == "" || strings.Contains(sp.name, "=") {
		return sp, fmt.Errorf("dataset %q: first field must be the name", raw)
	}
	for _, part := range parts[1:] {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sp, fmt.Errorf("dataset %q: bad field %q (want key=value)", sp.name, part)
		}
		var err error
		switch key {
		case "graph":
			sp.graphPath = val
		case "index":
			sp.indexPath = val
		case "k":
			sp.k, err = strconv.Atoi(val)
			sp.haveK = true
		case "h":
			if sp.h, err = strconv.Atoi(val); err == nil && sp.h < 1 {
				err = fmt.Errorf("h must be >= 1")
			}
		case "rungs":
			for _, r := range strings.Split(val, "+") {
				var k int
				if k, err = strconv.Atoi(r); err != nil {
					break
				}
				sp.rungs = append(sp.rungs, k)
			}
		case "cover":
			switch val {
			case "degree":
				sp.cover = kreach.DegreePrioritizedCover
			case "random":
				sp.cover = kreach.RandomEdgeCover
			case "greedy":
				sp.cover = kreach.GreedyCover
			default:
				err = fmt.Errorf("unknown cover strategy %q", val)
			}
		case "seed":
			sp.seed, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("dataset %q: %s: %v", sp.name, part, err)
		}
	}
	if sp.graphPath == "" {
		return sp, fmt.Errorf("dataset %q: graph=PATH is required", sp.name)
	}
	if sp.indexPath != "" && (sp.haveK || sp.h > 0 || len(sp.rungs) > 0) {
		return sp, fmt.Errorf("dataset %q: index=PATH excludes k/h/rungs", sp.name)
	}
	if len(sp.rungs) > 0 && (sp.haveK || sp.h > 0) {
		return sp, fmt.Errorf("dataset %q: rungs excludes k/h", sp.name)
	}
	if sp.h > 0 && !sp.haveK {
		return sp, fmt.Errorf("dataset %q: h requires k (> 2h)", sp.name)
	}
	return sp, nil
}

func loadDataset(raw string, mutable bool, walDir string, sync kreach.SyncPolicy, retain int) (*server.Dataset, error) {
	sp, err := parseSpec(raw)
	if err != nil {
		return nil, err
	}
	g, err := loadGraph(sp.graphPath)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
	}
	// The loader replays this spec from scratch — graph and index files are
	// re-read, built indexes rebuilt — so POST /v1/datasets/{name}/reload
	// picks up whatever snapshot is on disk at reload time. A reloaded
	// mutable dataset starts over from the on-disk graph: overlay
	// mutations not yet compacted to disk are deliberately discarded.
	d := &server.Dataset{Name: sp.name, Graph: g,
		Loader: func() (*server.Dataset, error) { return loadDataset(raw, mutable, walDir, sync, retain) }}
	if mutable {
		if sp.indexPath != "" || sp.h > 0 || len(sp.rungs) > 0 {
			return nil, fmt.Errorf("dataset %q: -mutable excludes index=/h=/rungs=", sp.name)
		}
		if !sp.haveK || sp.k < 1 {
			return nil, fmt.Errorf("dataset %q: -mutable requires a finite k= >= 1 (incremental maintenance is k-hop bounded)", sp.name)
		}
		opts := kreach.DynamicOptions{K: sp.k, Cover: sp.cover, Seed: sp.seed}
		if walDir != "" {
			// Durable: recover from DIR/<name>/ — the durability directory is
			// the source of truth, the spec's graph only seeds a virgin one.
			// No Loader: a reload would re-open the log the live store holds
			// and silently fork history; restart the daemon instead.
			recoverStart := time.Now()
			dyn, base, w, err := kreach.OpenDurableDynamicIndex(g, opts, kreach.DurableOptions{
				Dir:          filepath.Join(walDir, sp.name),
				Sync:         sync,
				RetainEpochs: retain,
			})
			if err != nil {
				return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
			}
			wst := w.Stats()
			logger.Info("dataset recovered",
				"name", sp.name,
				"epoch", dyn.Epoch(),
				"snapshot_epoch", wst.SnapshotEpoch,
				"replayed", wst.RecordsReplayed,
				"dir", wst.Dir,
				"duration", time.Since(recoverStart))
			return &server.Dataset{Name: sp.name, Graph: base, Reacher: dyn, WAL: w}, nil
		}
		dyn, err := kreach.NewDynamicIndex(g, opts)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
		}
		d.Reacher = dyn
		return d, nil
	}
	// Every branch produces a kreach.Reacher; the serving layer needs
	// nothing more specific.
	switch {
	case sp.indexPath != "":
		f, err := os.Open(sp.indexPath)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
		}
		r, err := kreach.LoadAutoReacher(f, g)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %s: %w", sp.name, sp.indexPath, err)
		}
		d.Reacher = r
	case len(sp.rungs) > 0:
		m, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{
			Rungs: sp.rungs, Cover: sp.cover, Seed: sp.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
		}
		d.Reacher = m
	case sp.h > 0:
		hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: sp.h, K: sp.k})
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
		}
		d.Reacher = hk
	default:
		k := kreach.Unbounded
		if sp.haveK {
			k = sp.k
		}
		ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: k, Cover: sp.cover, Seed: sp.seed})
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", sp.name, err)
		}
		d.Reacher = ix
	}
	return d, nil
}

// loadFollower builds one replicated dataset: the spec's graph seeds the
// local state (a durable follower's WAL overrides it on recovery), the
// dynamic options must match the primary's spec, and the returned Follower
// still needs Run started once the signal context exists.
func loadFollower(raw, primary string, pollWait time.Duration, walDir string, sync kreach.SyncPolicy, retain int, reg *server.Registry) (*server.Dataset, *server.Follower, error) {
	sp, err := parseSpec(raw)
	if err != nil {
		return nil, nil, err
	}
	if sp.indexPath != "" || sp.h > 0 || len(sp.rungs) > 0 {
		return nil, nil, fmt.Errorf("dataset %q: -follow excludes index=/h=/rungs= (followers replicate a dynamic index)", sp.name)
	}
	if !sp.haveK || sp.k < 1 {
		return nil, nil, fmt.Errorf("dataset %q: -follow requires a finite k= >= 1 matching the primary's", sp.name)
	}
	g, err := loadGraph(sp.graphPath)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %q: %w", sp.name, err)
	}
	cfg := server.FollowerConfig{
		Primary:      primary,
		Dataset:      sp.name,
		Registry:     reg,
		Options:      kreach.DynamicOptions{K: sp.k, Cover: sp.cover, Seed: sp.seed},
		Sync:         sync,
		RetainEpochs: retain,
		PollWait:     pollWait,
		Logger:       logger,
	}
	if walDir != "" {
		cfg.WALDir = filepath.Join(walDir, sp.name)
	}
	f, err := server.NewFollower(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %q: %w", sp.name, err)
	}
	d, err := f.Bootstrap(g)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %q: %w", sp.name, err)
	}
	logger.Info("dataset following",
		"name", sp.name,
		"primary", primary,
		"resume_epoch", f.Status().LastAppliedEpoch,
		"durable", cfg.WALDir != "")
	return d, f, nil
}

func loadGraph(path string) (*kreach.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".krg") {
		return kreach.LoadBinary(f)
	}
	return kreach.LoadEdgeList(f)
}

func logDataset(d *server.Dataset) {
	logger.Info("dataset loaded",
		"name", d.Name,
		"kind", string(d.Kind()),
		"epoch", d.Epoch(),
		"vertices", d.Graph.NumVertices(),
		"edges", d.Graph.NumEdges())
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	logger.Error("exiting", "error", err)
	os.Exit(1)
}
