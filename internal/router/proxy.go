package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Pass-through proxying for the single-query endpoints and mutations.
// /v1/reach and /v1/neighbors go to the least-loaded routable replica,
// unparsed: every replica serves every dataset, so the body is the
// backend's to validate. Mutations go to the primary only: they are not
// idempotent and the other replicas don't journal them.

// handleRead forwards a /v1/reach or /v1/neighbors body to candidates()
// in order. Only transport errors and upstream 5xx fail over — a 4xx is
// the client's answer.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if !rt.readBody(w, r, &buf) {
		return
	}
	body := buf.Bytes()
	cands := rt.candidates()
	if len(cands) == 0 {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoReplicas, "no routable replicas")
		return
	}
	attempts := min(len(cands), rt.cfg.Retries+1)
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.metrics.retries.Inc()
		}
		done, err := rt.forward(r.Context(), w, cands[i], r.URL.Path, body)
		if done {
			return
		}
		lastErr = err
		if r.Context().Err() != nil {
			return
		}
	}
	writeErrorCode(w, http.StatusBadGateway, CodeUpstreamError, "all candidates failed: %v", lastErr)
}

// forward sends body to one replica and, unless the outcome calls for
// failover (transport error or upstream 5xx), streams the upstream
// response to the client and reports done.
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, rep *Replica, path string, body []byte) (done bool, err error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.Base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rep.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.noteFailure(rt.cfg.EjectAfter, err)
		}
		return false, err
	}
	defer drainClose(resp)
	if resp.StatusCode >= 500 {
		err := fmt.Errorf("router: %s %s: status %d", rep.ID, path, resp.StatusCode)
		rep.noteFailure(rt.cfg.EjectAfter, err)
		return false, err
	}
	rep.noteSuccess()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true, nil
}

// handlePrimary forwards a mutation (edges append, compact) to the primary
// replica, with no failover: mutations are not idempotent, and only the
// primary journals them. A dead primary is a typed 502, not a silent
// redirect that would fork the dataset.
func (rt *Router) handlePrimary(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if !rt.readBody(w, r, &buf) {
		return
	}
	rep := rt.primary
	done, err := rt.forward(r.Context(), w, rep, r.URL.Path, buf.Bytes())
	if !done && r.Context().Err() == nil {
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
// leaves candidates()), wait for its in-flight legs to finish, run the
// backend reload, observe the new epoch, undrain.
// Queries keep flowing throughout — at most one replica is out of rotation
// at any moment, and because a drained replica finishes its in-flight work
// before reloading, the epoch fence never trips on this path.
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

// handleStats serves the router's own view: uptime, leg config and the
// live per-replica health/load/epoch table placement and the fence read.
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
			"leg_pairs":      rt.cfg.LegPairs,
			"hedge_after_ms": float64(rt.cfg.HedgeAfter) / float64(time.Millisecond),
			"routable":       rt.routableCount(),
		},
		"replicas": reps,
	})
}
