// Command kreach-router is the stateless L7 front tier over a set of
// kreachd replicas: one address for clients, N replicas behind it.
//
// Usage:
//
//	kreach-router -listen :7330 \
//	    -replica http://10.0.0.1:7325 \
//	    -replica http://10.0.0.2:7325 \
//	    -replica http://10.0.0.3:7325 \
//	    -primary http://10.0.0.1:7325
//
// Every replica serves the full dataset set (replication, not
// partitioning), so any replica can answer any query; the router sends
// each one to the routable replica with the fewest requests in flight.
//
// Endpoints mirror kreachd's query surface: /v1/reach, /v1/batch and
// /v1/neighbors forward unparsed to that replica, failing over to the
// next on a transport error or 5xx (up to -retries more), and return its
// reply byte for byte; mutations (/v1/datasets/{name}/edges,
// .../compact) forward to -primary only.
// POST /v1/datasets/{name}/reload orchestrates a rolling reload: each
// replica in turn is drained at the router, reloaded, and readmitted, so
// clients see zero errors and no mixed-epoch answers.
//
// An active health checker probes every replica's /readyz and /v1/stats
// each -probe-interval, driving healthy/degraded/ejected states;
// request-path failures demote a replica immediately. Replicas running as
// followers (kreachd -follow) report their replication lag through
// /v1/stats; -max-lag-epochs and -max-lag-seconds demote a follower whose
// lag crosses either bound until it catches up. GET /v1/stats shows
// the live replica table, GET /metrics the router's Prometheus exposition,
// GET /readyz answers 200 while at least one replica is routable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kreach/internal/router"
	"kreach/internal/server"
)

func main() {
	var (
		listen        = flag.String("listen", ":7330", "address to serve HTTP on")
		primary       = flag.String("primary", "", "replica URL receiving mutations (default: the first -replica)")
		maxBatch      = flag.Int("maxbatch", server.DefaultMaxBatch, "sizes the request body cap as the replicas' -maxbatch does")
		retries       = flag.Int("retries", router.DefaultRetries, "extra replicas tried after a failed request (negative disables)")
		probeInterval = flag.Duration("probe-interval", router.DefaultProbeInterval, "active health-check period")
		probeTimeout  = flag.Duration("probe-timeout", router.DefaultProbeTimeout, "health-check round-trip timeout")
		ejectAfter    = flag.Int("eject-after", router.DefaultEjectAfter, "consecutive failures that fully eject a replica")
		drainTimeout  = flag.Duration("drain-timeout", router.DefaultDrainTimeout, "rolling reload: max wait for a drained replica's in-flight work")
		maxLagEpochs  = flag.Uint64("max-lag-epochs", 0, "demote a follower replica lagging its primary by more than this many epochs (0 disables)")
		maxLagSecs    = flag.Float64("max-lag-seconds", 0, "demote a follower replica behind its primary for longer than this many seconds (0 disables)")
		logLevel      = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat     = flag.String("log-format", "text", "log encoding: 'text' (logfmt-style) or 'json'")
		replicas      []string
	)
	flag.Func("replica", "kreachd base URL, e.g. http://host:7325 (repeatable; at least one required)", func(s string) error {
		replicas = append(replicas, s)
		return nil
	})
	flag.Parse()
	if err := setupLogger(*logLevel, *logFormat); err != nil {
		fatal(err)
	}
	if len(replicas) == 0 {
		fmt.Fprintln(os.Stderr, "kreach-router: at least one -replica is required")
		flag.Usage()
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Replicas:      replicas,
		Primary:       *primary,
		MaxBatch:      *maxBatch,
		Retries:       *retries,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		EjectAfter:    *ejectAfter,
		DrainTimeout:  *drainTimeout,
		MaxLagEpochs:  *maxLagEpochs,
		MaxLagSeconds: *maxLagSecs,
		Logger:        logger,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// One synchronous probe round before serving: the first request routes
	// on observed health and epochs, not optimistic assumptions.
	rt.ProbeAll(ctx)
	rt.Start(ctx)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "replicas", len(replicas))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	logger.Error("exiting", "error", err)
	os.Exit(1)
}
