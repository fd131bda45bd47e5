package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"kreach/internal/server"
)

// Config tunes a Router.
type Config struct {
	// Replicas are the kreachd base URLs the router fronts (at least one).
	Replicas []string
	// Primary is the base URL receiving mutations (edges/compact); ""
	// means the first replica. Mutations never fail over: they are not
	// idempotent, and follower replicas reject local writes anyway — they
	// catch up from the primary's WAL feed (kreachd -follow).
	Primary string
	// MaxBatch sizes the request body cap as kreachd's -maxbatch does:
	// 4096 + 64·MaxBatch bytes (0 = server.DefaultMaxBatch). Counting the
	// pairs is the replica's job.
	MaxBatch int
	// Retries is the extra attempts a failed request gets on successive
	// candidates (0 = DefaultRetries; negative disables).
	Retries int
	// ProbeInterval is the active health-check period
	// (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-failure count that fully ejects a
	// replica (0 = DefaultEjectAfter).
	EjectAfter int
	// DrainTimeout bounds how long a rolling reload waits for a drained
	// replica's in-flight requests to finish (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxLagEpochs demotes a follower replica whose worst per-dataset
	// replication lag exceeds this many epochs (0 disables).
	MaxLagEpochs uint64
	// MaxLagSeconds demotes a follower replica that has been behind its
	// primary for longer than this many seconds (0 disables).
	MaxLagSeconds float64
	// Logger receives structured routing logs; nil discards.
	Logger *slog.Logger
}

// Tuning defaults; every zero Config field resolves to one of these.
const (
	DefaultRetries       = 3
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	DefaultEjectAfter    = 3
	DefaultDrainTimeout  = 10 * time.Second
)

// Router fronts a replicated kreachd set. Create one with New; it is an
// http.Handler serving the same query surface as kreachd (/v1/reach,
// /v1/batch, /v1/neighbors, mutations) plus its own /v1/stats, /metrics,
// /healthz and /readyz. Call Start to run the active health checker.
type Router struct {
	cfg      Config
	replicas []*Replica
	primary  *Replica
	next     atomic.Uint64 // rotates the tie-break among equally loaded replicas
	mux      *http.ServeMux
	logger   *slog.Logger
	metrics  *routerMetrics
	maxBody  int64
	started  time.Time
}

// New builds a Router over cfg.Replicas.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = server.DefaultMaxBatch
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	rt := &Router{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
		started: time.Now(),
	}
	if rt.logger == nil {
		rt.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64, // concurrent requests reuse connections per replica
		IdleConnTimeout:     90 * time.Second,
	}}
	byID := make(map[string]*Replica, len(cfg.Replicas))
	for _, base := range cfg.Replicas {
		rep, err := newReplica(base, client)
		if err != nil {
			return nil, fmt.Errorf("router: replica %q: %w", base, err)
		}
		if _, dup := byID[rep.ID]; dup {
			return nil, fmt.Errorf("router: duplicate replica %q", rep.ID)
		}
		byID[rep.ID] = rep
		rt.replicas = append(rt.replicas, rep)
	}
	rt.primary = rt.replicas[0]
	if cfg.Primary != "" {
		rep, err := newReplica(cfg.Primary, client)
		if err != nil {
			return nil, fmt.Errorf("router: primary %q: %w", cfg.Primary, err)
		}
		existing, ok := byID[rep.ID]
		if !ok {
			return nil, fmt.Errorf("router: primary %q is not one of the replicas", cfg.Primary)
		}
		rt.primary = existing
	}
	rt.metrics = newRouterMetrics(rt)
	rt.maxBody = 4096 + 64*int64(cfg.MaxBatch)

	rt.mux.HandleFunc("POST /v1/reach", rt.instrument("reach", rt.handleRead))
	rt.mux.HandleFunc("POST /v1/batch", rt.instrument("batch", rt.handleRead))
	rt.mux.HandleFunc("POST /v1/neighbors", rt.instrument("neighbors", rt.handleRead))
	rt.mux.HandleFunc("POST /v1/datasets/{name}/edges", rt.instrument("edges", rt.handlePrimary))
	rt.mux.HandleFunc("POST /v1/datasets/{name}/compact", rt.instrument("compact", rt.handlePrimary))
	rt.mux.HandleFunc("POST /v1/datasets/{name}/reload", rt.instrument("reload", rt.handleRollingReload))
	rt.mux.HandleFunc("GET /v1/stats", rt.instrument("stats", rt.handleStats))
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Replicas returns the router's replica views (stats, tests).
func (rt *Router) Replicas() []*Replica { return append([]*Replica(nil), rt.replicas...) }

// candidates is the router's whole placement policy: the routable
// replicas in ascending in-flight order. Element 0 is the target, the
// rest are the failover order. Equally loaded replicas are ordered
// by a rotation an atomic counter advances on every call, so an idle tier
// spreads requests evenly instead of pinning the first replica.
func (rt *Router) candidates() []*Replica {
	routable := make([]*Replica, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		if rep.Routable() {
			routable = append(routable, rep)
		}
	}
	n := len(routable)
	if n < 2 {
		return routable
	}
	// Stable insertion sort, from the rotated start, on one snapshot of
	// each load; n is a replica count.
	start := int(rt.next.Add(1) % uint64(n))
	cands := make([]*Replica, n)
	loads := make([]int64, n)
	for i := 0; i < n; i++ {
		rep := routable[(start+i)%n]
		load := rep.Inflight()
		j := i
		for ; j > 0 && loads[j-1] > load; j-- {
			cands[j], loads[j] = cands[j-1], loads[j-1]
		}
		cands[j], loads[j] = rep, load
	}
	return cands
}

// routableCount is the number of replicas currently accepting placements.
func (rt *Router) routableCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.Routable() {
			n++
		}
	}
	return n
}

// Typed error codes carried in the "code" field of router error bodies,
// so clients and tests can tell an unanswerable request from a wrong one
// without parsing prose.
const (
	CodeNoReplicas    = "no_replicas"    // no routable replica
	CodePrimaryDown   = "primary_down"   // mutation target unreachable
	CodeUpstreamError = "upstream_error" // all candidates failed a pass-through
	CodeBadRequest    = "bad_request"    // client body unreadable or over the cap
)

// routerError is the router's error body.
type routerError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, routerError{Error: fmt.Sprintf(format, args...), Code: code})
}

// readBody reads the client's body into buf under the body cap. A body past
// the cap is refused whole with a 413 bad_request — never truncated and
// forwarded — and any other read error is a 400 bad_request.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	err := server.ReadBody(w, r, buf, rt.maxBody)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErrorCode(w, http.StatusRequestEntityTooLarge, CodeBadRequest,
			"request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
	default:
		return true
	}
	return false
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the router is ready when at least one replica is
// routable — with zero, every query would fail anyway, and a fleet
// balancer should stop sending here.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if rt.routableCount() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no routable replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// drainClose drains and closes a response body so the transport can reuse
// the connection.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
