package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Active health checking: every ProbeInterval each replica is scraped —
// GET /readyz for the routable verdict, GET /v1/stats for identity,
// per-dataset epochs and follower lag. Probe failures feed
// the same consecutive-failure counter the request path uses, so the two
// signals compose: a request-path failure demotes instantly, and the
// prober both confirms the outage and notices the recovery.

// statsView is the slice of the backend /v1/stats document the router
// consumes: process identity plus per-dataset epochs.
type statsView struct {
	Server struct {
		InstanceID string `json:"instance_id"`
		Ready      bool   `json:"ready"`
		Draining   bool   `json:"draining"`
	} `json:"server"`
	Datasets []struct {
		Name     string `json:"name"`
		Epoch    uint64 `json:"epoch"`
		Follower *struct {
			LagEpochs  uint64  `json:"lag_epochs"`
			LagSeconds float64 `json:"lag_seconds"`
		} `json:"follower"`
	} `json:"datasets"`
}

// probe scrapes one replica once and folds the result into its state.
func (rt *Router) probe(ctx context.Context, rep *Replica) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()

	ready, err := rt.probeReadyz(ctx, rep)
	if err != nil {
		rep.noteFailure(rt.cfg.EjectAfter, err)
		rt.metrics.probes.With("error").Inc()
		return err
	}
	view, err := rt.probeStats(ctx, rep)
	if err != nil {
		rep.noteFailure(rt.cfg.EjectAfter, err)
		rt.metrics.probes.With("error").Inc()
		return err
	}

	rep.setInstance(view.Server.InstanceID)
	var worstEpochs uint64
	var worstSeconds float64
	for _, d := range view.Datasets {
		rep.observeEpoch(d.Name, d.Epoch)
		if d.Follower != nil {
			worstEpochs = max(worstEpochs, d.Follower.LagEpochs)
			worstSeconds = max(worstSeconds, d.Follower.LagSeconds)
		}
	}
	// Replication lag demotion: a follower trailing its primary beyond the
	// configured bounds stops taking placements — it is alive and healthy,
	// just temporarily serving old epochs — and readmits itself the moment a
	// probe sees it caught up.
	over := (rt.cfg.MaxLagEpochs > 0 && worstEpochs > rt.cfg.MaxLagEpochs) ||
		(rt.cfg.MaxLagSeconds > 0 && worstSeconds > rt.cfg.MaxLagSeconds)
	wasLagged := rep.Lagged()
	rep.setLag(worstEpochs, worstSeconds, over)
	if over && !wasLagged {
		rt.logger.Warn("replica demoted for replication lag", "replica", rep.ID,
			"lag_epochs", worstEpochs, "lag_seconds", worstSeconds)
	} else if !over && wasLagged {
		rt.logger.Info("replica caught up, readmitted", "replica", rep.ID)
	}
	// The process is alive and scraping: the failure streak resets even if
	// it is not ready (a draining or still-loading backend is not broken,
	// it is just not routable).
	rep.noteSuccess()
	rep.ready.Store(ready && !view.Server.Draining)
	rep.mu.Lock()
	rep.lastProbe = time.Now()
	rep.mu.Unlock()
	rt.metrics.probes.With("ok").Inc()
	return nil
}

func (rt *Router) probeReadyz(ctx context.Context, rep *Replica) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.Base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := rep.http.Do(req)
	if err != nil {
		return false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusServiceUnavailable:
		return false, nil // alive, not routable (loading or draining)
	default:
		return false, fmt.Errorf("router: %s /readyz: unexpected status %d", rep.ID, resp.StatusCode)
	}
}

func (rt *Router) probeStats(ctx context.Context, rep *Replica) (*statsView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.Base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rep.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: %s /v1/stats: status %d", rep.ID, resp.StatusCode)
	}
	var view statsView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("router: %s /v1/stats: %w", rep.ID, err)
	}
	return &view, nil
}

// ProbeAll probes every replica once, concurrently, and returns when all
// probes finish. kreach-router runs one round before serving so the first
// request already routes on observed (not assumed) health and epochs.
func (rt *Router) ProbeAll(ctx context.Context) {
	done := make(chan struct{})
	for _, rep := range rt.replicas {
		go func(rep *Replica) {
			defer func() { done <- struct{}{} }()
			if err := rt.probe(ctx, rep); err != nil {
				rt.logger.Warn("probe failed", "replica", rep.ID, "error", err)
			}
		}(rep)
	}
	for range rt.replicas {
		<-done
	}
}

// Start launches the per-replica probe loops; they stop when ctx ends.
func (rt *Router) Start(ctx context.Context) {
	for _, rep := range rt.replicas {
		go func(rep *Replica) {
			t := time.NewTicker(rt.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					wasRoutable := rep.Routable()
					if err := rt.probe(ctx, rep); err != nil && wasRoutable {
						rt.logger.Warn("replica demoted", "replica", rep.ID,
							"state", rep.State().String(), "error", err)
					} else if rep.Routable() && !wasRoutable {
						rt.logger.Info("replica recovered", "replica", rep.ID)
					}
				}
			}
		}(rep)
	}
}
