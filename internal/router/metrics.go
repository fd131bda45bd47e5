package router

import (
	"net/http"
	"time"

	"kreach/internal/obs"
)

// MetricCatalog lists every metric family the router exposes, in
// exposition (sorted) order. Like the server catalog it is an API:
// docs/OBSERVABILITY.md documents each name and the router smoke test
// asserts a live scrape carries all of them.
func MetricCatalog() []string {
	return []string{
		"kreach_router_probes_total",
		"kreach_router_replica_inflight",
		"kreach_router_replica_lag_epochs",
		"kreach_router_replica_lag_seconds",
		"kreach_router_replica_up",
		"kreach_router_replicas",
		"kreach_router_replicas_routable",
		"kreach_router_request_duration_seconds",
		"kreach_router_requests_in_flight",
		"kreach_router_retries_total",
	}
}

// routerMetrics holds the router's own instruments; per-replica state is
// emitted through a scrape-time collector so /metrics reflects the health
// view of the instant it is scraped.
type routerMetrics struct {
	reg      *obs.Registry
	requests *obs.HistogramVec // endpoint, outcome
	inFlight *obs.Gauge
	retries  *obs.Counter
	probes   *obs.CounterVec // outcome: ok/error
}

func newRouterMetrics(rt *Router) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg: r,
		requests: r.HistogramVec("kreach_router_request_duration_seconds",
			"Router request latency by endpoint and outcome (ok/error).",
			"endpoint", "outcome"),
		inFlight: r.Gauge("kreach_router_requests_in_flight",
			"Client requests currently being served by the router."),
		retries: r.Counter("kreach_router_retries_total",
			"Forwarding attempts beyond the first (failover retries)."),
		probes: r.CounterVec("kreach_router_probes_total",
			"Active health probes, by outcome (ok/error).",
			"outcome"),
	}
	r.AddCollector(rt.collectReplicas)
	return m
}

// collectReplicas emits the per-replica health view at scrape time.
func (rt *Router) collectReplicas(e *obs.Emitter) {
	e.Gauge("kreach_router_replicas", "Configured replicas.", nil, float64(len(rt.replicas)))
	e.Gauge("kreach_router_replicas_routable", "Replicas currently accepting placements.",
		nil, float64(rt.routableCount()))
	for _, rep := range rt.replicas {
		labels := map[string]string{"replica": rep.ID}
		up := 0.0
		if rep.Routable() {
			up = 1.0
		}
		e.Gauge("kreach_router_replica_up", "1 when the replica is routable (healthy, ready, not draining).",
			labels, up)
		e.Gauge("kreach_router_replica_inflight", "Requests currently outstanding against the replica.",
			labels, float64(rep.Inflight()))
		lagE, lagS := rep.lagView()
		e.Gauge("kreach_router_replica_lag_epochs",
			"Worst per-dataset replication lag in epochs, from the last probe (0 for primaries).",
			labels, float64(lagE))
		e.Gauge("kreach_router_replica_lag_seconds",
			"Worst per-dataset replication lag in seconds, from the last probe (0 for primaries).",
			labels, lagS)
	}
}

// handleMetrics serves the router's Prometheus text exposition.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.metrics.reg.WritePrometheus(w)
}

// instrument wraps a handler with in-flight accounting and the latency
// histogram; outcome is derived from the response status class.
func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hOK := rt.metrics.requests.With(endpoint, "ok")
	hErr := rt.metrics.requests.With(endpoint, "error")
	return func(w http.ResponseWriter, r *http.Request) {
		rt.metrics.inFlight.Add(1)
		defer rt.metrics.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		el := time.Since(start)
		if sw.status < 400 {
			hOK.Observe(el)
		} else {
			hErr.Observe(el)
		}
	}
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
