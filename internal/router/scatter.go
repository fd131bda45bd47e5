package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"kreach"
	"kreach/internal/server"
)

// Scatter-gather for /v1/batch: cut the pairs into contiguous legs of at
// most LegPairs, fan the legs out in parallel under the request context,
// gather with the per-replica epoch fence, reassemble in request order.
// The contract is total accounting — every pair position is either
// answered or named in a typed failed_pairs list; nothing silently drops.
// Bodies in both directions go through internal/server's batch codec, so
// the wire format is defined in one place.

// leg is one contiguous chunk of a batch: the request positions
// [off, off+len(pairs)), the replica that ultimately answered, and the
// backend response.
type leg struct {
	off   int           // position of pairs[0] in the client request
	pairs []kreach.Pair // a window of the request's pairs, not a copy
	cands []*Replica

	rep      *Replica
	resp     *server.BatchReply
	err      error
	retried  bool
	terminal *terminalError
}

// terminalError is a backend 4xx: the request itself is invalid (unknown
// graph, bad k), so retrying another replica cannot help — the first such
// answer passes through to the client.
type terminalError struct {
	status int
	body   []byte
}

func (t *terminalError) Error() string { return fmt.Sprintf("upstream status %d", t.status) }

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := server.GetBatchScratch()
	defer server.PutBatchScratch(sc)
	if !rt.readBody(w, r, &sc.Body) {
		return
	}
	req := &sc.Req
	if err := server.DecodeBatchRequest(sc.Body.Bytes(), req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
		return
	}
	if req.Graph == "" {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, "missing graph")
		return
	}
	if len(req.Pairs) == 0 {
		sc.Out = server.AppendRoutedBatchReply(sc.Out[:0], &server.BatchReply{Graph: req.Graph, Results: []bool{}}, 0)
		server.WriteBody(w, http.StatusOK, sc.Out)
		return
	}
	if len(req.Pairs) > rt.cfg.MaxBatch {
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest,
			"batch of %d pairs exceeds limit %d", len(req.Pairs), rt.cfg.MaxBatch)
		return
	}

	legs := rt.partition(req.Pairs)
	if legs == nil {
		writeErrorCode(w, http.StatusServiceUnavailable, CodeNoReplicas, "no routable replicas")
		return
	}

	rt.dispatchAll(r.Context(), req.Graph, req.K, legs)

	// Per-replica epoch fence: no replica may contribute legs answered
	// under two different index generations to one merged response. A
	// violation means the replica reloaded mid-gather; the stale (older
	// generation) legs are re-dispatched once — they will be answered
	// under the new generation, or by another replica entirely.
	if stale := rt.fenceViolations(legs); len(stale) > 0 {
		rt.metrics.fences.Add(uint64(len(stale)))
		rt.logger.Warn("epoch fence tripped, re-dispatching stale legs",
			"dataset", req.Graph, "legs", len(stale))
		for _, lg := range stale {
			lg.cands = rt.candidates()
			lg.rep, lg.resp, lg.err = nil, nil, nil
		}
		rt.dispatchAll(r.Context(), req.Graph, req.K, stale)
		if again := rt.fenceViolations(legs); len(again) > 0 {
			rt.metrics.fences.Add(uint64(len(again)))
			writeErrorCode(w, http.StatusBadGateway, CodeMixedEpoch,
				"replica answered legs under mixed index epochs during reload; retry the batch")
			return
		}
	}

	// A backend 4xx is the client's error, not a routing failure: pass the
	// first one through verbatim.
	for _, lg := range legs {
		if lg.terminal != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(lg.terminal.status)
			w.Write(lg.terminal.body)
			return
		}
	}

	resp := server.BatchReply{
		Graph:   req.Graph,
		Count:   len(req.Pairs),
		Results: make([]bool, len(req.Pairs)),
	}
	var failed []int
	for _, lg := range legs {
		end := lg.off + len(lg.pairs)
		if lg.resp == nil {
			for pos := lg.off; pos < end; pos++ {
				failed = append(failed, pos)
			}
			continue
		}
		copy(resp.Results[lg.off:end], lg.resp.Results)
		if len(lg.resp.Verdicts) > 0 {
			if resp.Verdicts == nil {
				resp.Verdicts = make([]string, len(req.Pairs))
				resp.EffectiveK = make([]int, len(req.Pairs))
			}
			copy(resp.Verdicts[lg.off:end], lg.resp.Verdicts)
			copy(resp.EffectiveK[lg.off:end], lg.resp.EffectiveK)
		}
	}
	if len(failed) > 0 {
		rt.metrics.partials.Inc()
		writeJSON(w, http.StatusBadGateway, routerError{
			Error:       fmt.Sprintf("%d of %d pairs unanswered after retries", len(failed), len(req.Pairs)),
			Code:        CodePartialFailure,
			FailedPairs: failed,
		})
		return
	}
	sc.Out = server.AppendRoutedBatchReply(sc.Out[:0], &resp, len(legs))
	server.WriteBody(w, http.StatusOK, sc.Out)
}

// partition cuts the pairs into contiguous legs of at most LegPairs, in
// request order. One candidates() call places the whole batch: leg j
// starts at candidate j mod n, so a batch within LegPairs is one leg on
// the least-loaded replica and a larger one spreads round-robin from
// there. Returns nil when no replica is routable.
func (rt *Router) partition(pairs []kreach.Pair) []*leg {
	cands := rt.candidates()
	n := len(cands)
	if n == 0 {
		return nil
	}
	cands = append(cands, cands...) // every rotation is a window of the doubled slice
	var legs []*leg
	for off := 0; off < len(pairs); off += rt.cfg.LegPairs {
		end := min(off+rt.cfg.LegPairs, len(pairs))
		j := len(legs) % n
		legs = append(legs, &leg{off: off, pairs: pairs[off:end], cands: cands[j : j+n]})
	}
	return legs
}

// dispatchAll runs every leg in parallel and waits for all of them.
func (rt *Router) dispatchAll(ctx context.Context, dataset string, k *int, legs []*leg) {
	done := make(chan struct{})
	for _, lg := range legs {
		go func(lg *leg) {
			defer func() { done <- struct{}{} }()
			rt.dispatchLeg(ctx, dataset, k, lg)
		}(lg)
	}
	for range legs {
		<-done
	}
}

// dispatchLeg walks a leg's candidates: the target first, then the
// failover order with jittered exponential backoff between attempts, each
// attempt hedged against the next candidate past the latency budget. The
// first successful answer wins; a backend 4xx stops the walk immediately.
func (rt *Router) dispatchLeg(ctx context.Context, dataset string, k *int, lg *leg) {
	// Sized for ids up to six digits; longer ones grow it once. The body is
	// not pooled: a cancelled hedge may still be sending it.
	body := server.AppendBatchRequest(make([]byte, 0, 64+len(dataset)+16*len(lg.pairs)), dataset, lg.pairs, k)
	attempts := min(len(lg.cands), rt.cfg.Retries+1)
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.metrics.retries.Inc()
			lg.retried = true
			backoff := rt.cfg.RetryBackoff << (i - 1)
			backoff += time.Duration(rand.Int63n(int64(backoff) + 1)) // full jitter on top
			select {
			case <-ctx.Done():
				lg.err = ctx.Err()
				rt.metrics.legs.With("failed").Inc()
				return
			case <-time.After(backoff):
			}
		}
		var hedge *Replica
		if i+1 < len(lg.cands) {
			hedge = lg.cands[i+1]
		}
		resp, rep, err := rt.legHedged(ctx, lg.cands[i], hedge, dataset, body, len(lg.pairs))
		if err == nil {
			lg.rep, lg.resp = rep, resp
			if lg.retried {
				rt.metrics.legs.With("retried_ok").Inc()
			} else {
				rt.metrics.legs.With("ok").Inc()
			}
			return
		}
		lg.err = err
		if t, ok := err.(*terminalError); ok {
			lg.terminal = t
			rt.metrics.legs.With("failed").Inc()
			return
		}
		if ctx.Err() != nil {
			rt.metrics.legs.With("failed").Inc()
			return
		}
	}
	rt.metrics.legs.With("failed").Inc()
}

// legHedged runs one attempt against primary; if it has not answered
// within HedgeAfter and a hedge candidate exists, the same leg fires
// against the hedge and the first success wins (the loser is cancelled).
func (rt *Router) legHedged(ctx context.Context, primary, hedge *Replica, dataset string, body []byte, pairs int) (*server.BatchReply, *Replica, error) {
	if hedge == nil || rt.cfg.HedgeAfter < 0 {
		resp, err := rt.legAttempt(ctx, primary, dataset, body, pairs)
		return resp, primary, err
	}
	type result struct {
		resp *server.BatchReply
		rep  *Replica
		err  error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	launch := func(rep *Replica) {
		go func() {
			resp, err := rt.legAttempt(ctx, rep, dataset, body, pairs)
			ch <- result{resp, rep, err}
		}()
	}
	launch(primary)
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	inFlight := 1
	hedged := false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				inFlight++
				rt.metrics.hedges.Inc()
				launch(hedge)
			}
		case res := <-ch:
			inFlight--
			if res.err == nil {
				return res.resp, res.rep, nil
			}
			if t, ok := res.err.(*terminalError); ok {
				return nil, res.rep, t
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if inFlight == 0 {
				if !hedged {
					// Primary failed before the hedge budget: fall through to
					// the hedge candidate immediately rather than burning the
					// remaining budget on a known-dead socket.
					hedged = true
					inFlight++
					launch(hedge)
					continue
				}
				return nil, nil, firstErr
			}
		}
	}
}

// legAttempt sends one leg to one replica and folds the outcome into the
// replica's health and epoch state.
func (rt *Router) legAttempt(ctx context.Context, rep *Replica, dataset string, body []byte, pairs int) (*server.BatchReply, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.Base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rep.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.noteFailure(rt.cfg.EjectAfter, err)
		}
		return nil, err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, &terminalError{status: resp.StatusCode, body: payload}
	default:
		err := fmt.Errorf("router: %s /v1/batch: status %d", rep.ID, resp.StatusCode)
		rep.noteFailure(rt.cfg.EjectAfter, err)
		return nil, err
	}
	b, err := decodeLegReply(resp.Body, pairs)
	if err != nil {
		err = fmt.Errorf("router: %s /v1/batch: %w", rep.ID, err)
		rep.noteFailure(rt.cfg.EjectAfter, err)
		return nil, err
	}
	rep.noteSuccess()
	rep.observeEpoch(dataset, b.Epoch)
	return b, nil
}

// decodeLegReply reads and decodes a backend's answer to a leg of the given
// number of pairs, which it must answer in full.
func decodeLegReply(body io.Reader, pairs int) (*server.BatchReply, error) {
	sc := server.GetBatchScratch()
	defer server.PutBatchScratch(sc)
	sc.Body.Reset()
	if _, err := sc.Body.ReadFrom(body); err != nil {
		return nil, err
	}
	b := &server.BatchReply{Results: make([]bool, 0, pairs)}
	if err := server.DecodeBatchReply(sc.Body.Bytes(), b); err != nil {
		return nil, err
	}
	if b.Count != len(b.Results) || b.Count != pairs {
		return nil, fmt.Errorf("count %d, results %d, for a leg of %d pairs", b.Count, len(b.Results), pairs)
	}
	return b, nil
}

// fenceViolations returns the stale legs of every replica that answered
// this gather under more than one index epoch: for each offending replica,
// the legs below its newest observed epoch. Epochs are process-local, so
// the check is strictly per replica — two replicas reporting different
// numbers is normal and meaningless.
func (rt *Router) fenceViolations(legs []*leg) []*leg {
	newest := make(map[string]uint64)
	mixed := make(map[string]bool)
	for _, lg := range legs {
		if lg.resp == nil || lg.rep == nil {
			continue
		}
		id := lg.rep.ID
		if prev, ok := newest[id]; ok && prev != lg.resp.Epoch {
			mixed[id] = true
		}
		if lg.resp.Epoch > newest[id] {
			newest[id] = lg.resp.Epoch
		}
	}
	if len(mixed) == 0 {
		return nil
	}
	var stale []*leg
	for _, lg := range legs {
		if lg.resp != nil && lg.rep != nil && mixed[lg.rep.ID] && lg.resp.Epoch < newest[lg.rep.ID] {
			stale = append(stale, lg)
		}
	}
	return stale
}
