package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"kreach/internal/server"
)

// Pass-through proxying. /v1/reach, /v1/batch and /v1/neighbors go to the
// least-loaded routable replica, unparsed: every replica serves every
// dataset, so one replica answers the whole request from one snapshot and
// the body is its to validate. Mutations go to the primary only: they are
// not idempotent and the other replicas don't journal them.

// handleRead forwards a read to candidates() in order. Only transport
// errors (a short reply included) and upstream 5xx fail over — a 4xx is
// the client's answer. The reply goes to the client byte for byte.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	sc := server.GetBatchScratch()
	defer server.PutBatchScratch(sc)
	if !rt.readBody(w, r, &sc.Body) {
		return
	}
	cands := rt.candidates()
	if len(cands) == 0 {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoReplicas, "no routable replicas")
		return
	}
	var lastErr error
	for i, rep := range cands[:min(len(cands), rt.cfg.Retries+1)] {
		if i > 0 {
			rt.metrics.retries.Inc()
		}
		status, err := rt.forward(r.Context(), rep, r.URL.Path, sc)
		if err == nil && status < 500 {
			server.WriteBody(w, status, sc.Out)
			return
		}
		if err == nil {
			err = fmt.Errorf("router: %s %s: status %d", rep.ID, r.URL.Path, status)
			rep.noteFailure(rt.cfg.EjectAfter, err)
		}
		lastErr = err
		if r.Context().Err() != nil {
			return
		}
	}
	writeErrorCode(w, http.StatusBadGateway, CodeUpstreamError, "all candidates failed: %v", lastErr)
}

// forward posts the body in sc.Body to one replica and reads its whole
// reply into sc.Out before anything reaches the client. An error means no
// complete reply arrived — the replica is unreachable or died mid-reply —
// and the replica is marked failed; any complete reply below 500 marks it
// healthy. The transport gets a copy of the body, not the pooled bytes: it
// may still be writing a body after the reply has arrived (a replica that
// answers before reading all of it), and by then sc may be back in the pool.
func (rt *Router) forward(ctx context.Context, rep *Replica, path string, sc *server.BatchScratch) (status int, err error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	body := bytes.NewReader(bytes.Clone(sc.Body.Bytes()))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.Base+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rep.http.Do(req)
	if err == nil {
		reply := bytes.NewBuffer(sc.Out[:0])
		_, err = reply.ReadFrom(resp.Body)
		resp.Body.Close()
		sc.Out = reply.Bytes()
	}
	if err != nil {
		if ctx.Err() == nil {
			rep.noteFailure(rt.cfg.EjectAfter, err)
		}
		return 0, err
	}
	if resp.StatusCode < 500 {
		rep.noteSuccess()
	}
	return resp.StatusCode, nil
}

// handlePrimary forwards a mutation (edges append, compact) to the primary
// replica, with no failover: mutations are not idempotent, and only the
// primary journals them. Any reply the primary gives, its own 5xx
// included, passes through verbatim; only an unreachable primary is a
// typed 502, not a silent redirect that would fork the dataset.
func (rt *Router) handlePrimary(w http.ResponseWriter, r *http.Request) {
	sc := server.GetBatchScratch()
	defer server.PutBatchScratch(sc)
	if !rt.readBody(w, r, &sc.Body) {
		return
	}
	rep := rt.primary
	status, err := rt.forward(r.Context(), rep, r.URL.Path, sc)
	switch {
	case err == nil:
		server.WriteBody(w, status, sc.Out)
	case r.Context().Err() == nil:
		writeErrorCode(w, http.StatusBadGateway, CodePrimaryDown, "primary %s: %v", rep.ID, err)
	}
}

// reloadView mirrors the backend reload response (epoch is the field the
// orchestration needs; the rest passes through for the client).
type reloadView struct {
	Graph    string `json:"graph"`
	Kind     string `json:"kind"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// replicaReload is one replica's slice of a rolling-reload report.
type replicaReload struct {
	Replica  string `json:"replica"`
	Skipped  bool   `json:"skipped,omitempty"`
	OldEpoch uint64 `json:"old_epoch"`
	NewEpoch uint64 `json:"new_epoch,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleRollingReload orchestrates POST /v1/datasets/{name}/reload across
// the replica set, one replica at a time: drain it at the router (it
// leaves candidates()), wait for its in-flight requests to finish, run the
// backend reload, observe the new epoch, undrain.
// Queries keep flowing throughout — at most one replica is out of rotation
// at any moment, and each one is answered whole by one replica from one
// snapshot.
func (rt *Router) handleRollingReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	report := make([]replicaReload, 0, len(rt.replicas))
	failed := 0
	for _, rep := range rt.replicas {
		entry := replicaReload{Replica: rep.ID}
		entry.OldEpoch, _ = rep.Epoch(name)
		if !rep.Routable() {
			// An ejected or draining replica serves no traffic; reloading it
			// is the prober's recovery problem, not this orchestration's.
			entry.Skipped = true
			report = append(report, entry)
			continue
		}
		view, err := rt.reloadOne(r.Context(), rep, name)
		if err != nil {
			entry.Error = err.Error()
			failed++
		} else {
			entry.NewEpoch = view.Epoch
		}
		report = append(report, entry)
		if r.Context().Err() != nil {
			break
		}
	}
	status := http.StatusOK
	if failed > 0 {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, map[string]any{
		"graph":    name,
		"replicas": report,
		"failed":   failed,
	})
}

// reloadOne drains, reloads and undrains a single replica.
func (rt *Router) reloadOne(ctx context.Context, rep *Replica, name string) (*reloadView, error) {
	rep.draining.Store(true)
	defer rep.draining.Store(false)

	deadline := time.Now().Add(rt.cfg.DrainTimeout)
	for rep.Inflight() > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("router: %s: drain timed out with %d in flight", rep.ID, rep.Inflight())
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	rt.logger.Info("replica drained, reloading", "replica", rep.ID, "dataset", name)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		rep.Base+"/v1/datasets/"+name+"/reload", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rep.http.Do(req)
	if err != nil {
		rep.noteFailure(rt.cfg.EjectAfter, err)
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("router: %s reload: status %d: %s", rep.ID, resp.StatusCode, bytes.TrimSpace(payload))
	}
	var view reloadView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("router: %s reload: %w", rep.ID, err)
	}
	rep.observeEpoch(name, view.Epoch)
	rt.logger.Info("replica reloaded", "replica", rep.ID, "dataset", name, "epoch", view.Epoch)
	return &view, nil
}

// replicaStats is one replica's entry in the router's /v1/stats document.
type replicaStats struct {
	Replica    string            `json:"replica"`
	Base       string            `json:"base"`
	State      string            `json:"state"`
	Ready      bool              `json:"ready"`
	Draining   bool              `json:"draining"`
	Routable   bool              `json:"routable"`
	Lagged     bool              `json:"lagged,omitempty"`
	LagEpochs  uint64            `json:"lag_epochs,omitempty"`
	LagSeconds float64           `json:"lag_seconds,omitempty"`
	Inflight   int64             `json:"inflight"`
	InstanceID string            `json:"instance_id,omitempty"`
	Epochs     map[string]uint64 `json:"epochs,omitempty"`
	LastError  string            `json:"last_error,omitempty"`
	LastProbe  string            `json:"last_probe,omitempty"`
}

// handleStats serves the router's own view: uptime, the primary and the
// live per-replica health/load/epoch table placement reads.
func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	reps := make([]replicaStats, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		instance, epochs, lastErr, lastProbe := rep.snapshot()
		rs := replicaStats{
			Replica:    rep.ID,
			Base:       rep.Base,
			State:      rep.State().String(),
			Ready:      rep.ready.Load(),
			Draining:   rep.draining.Load(),
			Routable:   rep.Routable(),
			Lagged:     rep.Lagged(),
			Inflight:   rep.Inflight(),
			InstanceID: instance,
			Epochs:     epochs,
			LastError:  lastErr,
		}
		rs.LagEpochs, rs.LagSeconds = rep.lagView()
		if !lastProbe.IsZero() {
			rs.LastProbe = lastProbe.UTC().Format(time.RFC3339Nano)
		}
		reps = append(reps, rs)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router": map[string]any{
			"uptime_seconds": time.Since(rt.started).Seconds(),
			"primary":        rt.primary.ID,
			"routable":       rt.routableCount(),
		},
		"replicas": reps,
	})
}
