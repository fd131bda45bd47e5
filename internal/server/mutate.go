package server

import (
	"errors"
	"fmt"
	"net/http"

	"kreach"
)

// This file is the write path: POST /v1/datasets/{name}/edges applies
// batched edge mutations to a dynamic dataset, and POST
// /v1/datasets/{name}/compact merges the overlay into a fresh snapshot and
// swaps it into the registry. Both only apply to datasets of KindDynamic
// (kreachd -mutable).

// ErrNotDynamic reports a mutation or compaction request against a
// dataset that does not serve a mutable index.
var ErrNotDynamic = errors.New("server: dataset does not serve a mutable index")

// ErrReadOnly reports a mutation or compaction request against a follower
// dataset: its state is driven by the primary's replication feed, and a
// local write (or a local compaction's fresh epoch) would fork the history
// the feed keeps epoch-exact. Send writes to the primary.
var ErrReadOnly = errors.New("server: dataset is a read-only follower")

// mutateRetries bounds how often a mutation re-resolves the current
// snapshot when a compaction or reload retires the one it was holding.
const mutateRetries = 3

// edgesRequest is the /v1/datasets/{name}/edges body: edge endpoints as
// [src, dst] pairs. Removals apply before additions.
type edgesRequest struct {
	Add    [][2]int `json:"add"`
	Remove [][2]int `json:"remove"`
}

// edgesResponse reports what the batch did. Epoch is the dataset epoch
// issued for the post-batch state; every cached answer from before the
// batch is keyed under an older epoch and therefore unreachable.
type edgesResponse struct {
	Graph          string `json:"graph"`
	Added          int    `json:"added"`
	Removed        int    `json:"removed"`
	DuplicateAdds  int    `json:"duplicate_adds"`
	MissingRemoves int    `json:"missing_removes"`
	UnknownVertex  int    `json:"unknown_vertices"`
	Promoted       int    `json:"promoted"`
	RowsRecomputed int    `json:"rows_recomputed"`
	RowsRelaxed    int    `json:"rows_relaxed"`
	Epoch          uint64 `json:"epoch"`
	LiveEdges      int    `json:"live_edges"`
	DeltaEdges     int    `json:"delta_edges"`
	Compacting     bool   `json:"compaction_triggered"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req edgesRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if total := len(req.Add) + len(req.Remove); total > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d edge ops exceeds limit %d", total, s.cfg.MaxBatch)
		return
	}
	// A compaction or reload can retire the snapshot between Lookup and
	// Mutate; re-resolve and retry so the client never sees the internal
	// handoff.
	for attempt := 0; ; attempt++ {
		d, err := s.reg.Lookup(name)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		dyn, ok := d.Mutable()
		if !ok {
			writeError(w, http.StatusConflict, "%v: %q serves kind %q", ErrNotDynamic, d.Name, d.Kind())
			return
		}
		if d.ReadOnly {
			writeError(w, http.StatusConflict, "%v: %q replicates from a primary", ErrReadOnly, d.Name)
			return
		}
		track(r.Context()).dataset = d.Name
		res, err := dyn.Mutate(req.Add, req.Remove)
		if errors.Is(err, kreach.ErrRetired) && attempt < mutateRetries {
			continue
		}
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		st := dyn.DynStats()
		resp := edgesResponse{
			Graph:          d.Name,
			Added:          res.Added,
			Removed:        res.Removed,
			DuplicateAdds:  res.DupAdds,
			MissingRemoves: res.MissingRemoves,
			UnknownVertex:  res.UnknownVertex,
			Promoted:       res.Promoted,
			RowsRecomputed: res.RowsRecomputed,
			RowsRelaxed:    res.RowsRelaxed,
			Epoch:          res.Epoch,
			LiveEdges:      st.LiveEdges,
			DeltaEdges:     st.DeltaAdded + st.DeltaRemoved,
		}
		// Overlay past its threshold: compact in the background, off the
		// serving path. ErrCompacting (another trigger won the race) and
		// ErrRetired are expected and dropped; the next stats poll shows
		// the outcome either way.
		if res.Applied() && dyn.ShouldCompact() {
			resp.Compacting = true
			go s.compactDataset(name) //nolint:errcheck // best-effort background job
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
}

// compactDataset compacts the named dataset's dynamic index and swaps the
// fresh snapshot into the registry. The registry swap runs inside the
// compaction's publish window, so no mutation can slip between the overlay
// snapshot and the successor becoming visible.
func (s *Server) compactDataset(name string) (*Dataset, error) {
	d, err := s.reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	dyn, ok := d.Mutable()
	if !ok {
		return nil, fmt.Errorf("%w: %q serves kind %q", ErrNotDynamic, d.Name, d.Kind())
	}
	if d.ReadOnly {
		return nil, fmt.Errorf("%w: %q replicates from a primary", ErrReadOnly, d.Name)
	}
	var next *Dataset
	_, _, err = dyn.Compact(func(nx *kreach.DynamicIndex, g *kreach.Graph) error {
		next = &Dataset{Name: d.Name, Graph: g, Reacher: nx, WAL: d.WAL}
		// Publish only if d is still the live snapshot: a reload that
		// landed while the rebuild ran must win, or mutations already
		// acknowledged against it would silently revert.
		return s.reg.SwapIf(d, next)
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// compactResponse answers POST /v1/datasets/{name}/compact.
type compactResponse struct {
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Compactions uint64 `json:"compactions"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var next *Dataset
	var err error
	for attempt := 0; ; attempt++ {
		next, err = s.compactDataset(name)
		if (errors.Is(err, kreach.ErrRetired) || errors.Is(err, ErrSuperseded)) &&
			attempt < mutateRetries {
			continue // a concurrent compaction/reload won; retry on the successor
		}
		break
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownDataset):
			status = http.StatusNotFound
		case errors.Is(err, ErrNotDynamic), errors.Is(err, ErrReadOnly),
			errors.Is(err, kreach.ErrCompacting):
			status = http.StatusConflict
		case errors.Is(err, kreach.ErrRetired), errors.Is(err, ErrSuperseded):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	track(r.Context()).dataset = next.Name
	nextDyn, _ := next.Mutable()
	writeJSON(w, http.StatusOK, compactResponse{
		Graph:       next.Name,
		Epoch:       next.Epoch(),
		Vertices:    next.Graph.NumVertices(),
		Edges:       nextDyn.NumEdges(),
		Compactions: nextDyn.DynStats().Compactions,
	})
}
