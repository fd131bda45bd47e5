package server

import (
	"cmp"
	"net/http"
	"slices"

	"kreach"
)

// POST /v1/neighbors: k-hop neighborhood enumeration — the set-query face
// of the API. Where /v1/reach asks "is t in s's small world", this endpoint
// returns who is: the whole ball (or the reverse ball, direction "in"),
// paginated by ascending vertex id.
//
// Enumeration is a capability, not a guarantee: the handler probes the
// dataset's Reacher for kreach.NeighborEnumerator and answers 501 Not
// Implemented when the backend cannot enumerate, exactly like the mutation
// endpoints answer 409 for immutable datasets.
//
// Pagination contract: members are ordered by ascending vertex id; a page
// carries up to `limit` members and, when the ball continues, a
// `next_cursor` to pass back verbatim. Pages are computed against the
// snapshot current at each request — on a mutable dataset a batch landing
// between pages can shift members, which the client can detect by watching
// the `epoch` field change between pages. Responses are not cached: a ball
// is already one index probe per page, and epoch-keyed ball caching would
// evict far hotter pairwise entries.

// DefaultNeighborLimit is the page size when the request omits "limit".
const DefaultNeighborLimit = 1024

// neighborsRequest is the /v1/neighbors body. Direction is "out" (default:
// vertices Source reaches, ReachFrom) or "in" (vertices that reach Source,
// ReachInto). K follows the same convention as /v1/reach: absent or 0 means
// the dataset's native bound, negative means classic reachability. Cursor
// is the next_cursor of the previous page (absent: first page).
type neighborsRequest struct {
	Graph     string `json:"graph"`
	Source    int    `json:"source"`
	K         *int   `json:"k"`
	Direction string `json:"direction"`
	Limit     int    `json:"limit"`
	Cursor    *int   `json:"cursor"`
}

// neighborEntry is one ball member of a /v1/neighbors page.
type neighborEntry struct {
	ID     int    `json:"id"`
	Bucket string `json:"bucket"` // "within" (dist ≤ k-1) or "frontier" (dist = k)
}

// neighborsResponse is one page of a ball. Total is the full ball size
// (excluding the source); NextCursor is present iff members remain beyond
// this page. K is the effective bound the ball was answered for; Epoch
// identifies the snapshot, so clients can detect a mutation landing
// between pages of a mutable dataset.
type neighborsResponse struct {
	Graph      string          `json:"graph"`
	Source     int             `json:"source"`
	K          int             `json:"k"`
	Direction  string          `json:"direction"`
	Epoch      uint64          `json:"epoch"`
	Total      int             `json:"total"`
	Count      int             `json:"count"`
	Neighbors  []neighborEntry `json:"neighbors"`
	NextCursor *int            `json:"next_cursor,omitempty"`
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	var req neighborsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, err := s.reg.Lookup(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	enum, ok := d.Enumerator()
	if !ok {
		writeError(w, http.StatusNotImplemented,
			"graph %q (kind %q) does not support neighborhood enumeration", d.Name, d.Kind())
		return
	}
	if err := checkVertex(d, "source", req.Source); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := d.CheckK(req.K); err != nil {
		writeError(w, http.StatusBadRequest, "graph %q: %v", d.Name, err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = DefaultNeighborLimit
	}
	if limit > s.cfg.MaxBatch {
		limit = s.cfg.MaxBatch
	}
	dir := "out"
	reach := enum.ReachFrom
	switch req.Direction {
	case "", "out":
	case "in":
		dir = "in"
		reach = enum.ReachInto
	default:
		writeError(w, http.StatusBadRequest, "direction %q is neither \"out\" nor \"in\"", req.Direction)
		return
	}
	rt := track(r.Context())
	rt.dataset, rt.s, rt.k = d.Name, req.Source, req.K
	if rep, ok := d.Reacher.(kreach.ExecPathReporter); ok {
		rt.path = rep.EnumPath(req.Source, requestK(req.K), dir == "out")
	}
	ball, err := reach(r.Context(), req.Source, requestK(req.K), kreach.EnumOptions{})
	if err != nil {
		writeAnswerError(w, r, d, err)
		return
	}
	// Page by ascending vertex id: a total order that re-pastes into the
	// exact ball regardless of page size, and survives re-enumeration.
	members := ball.Neighbors
	byID := func(a kreach.Neighbor, id int) int { return cmp.Compare(a.ID, id) }
	slices.SortFunc(members, func(a, b kreach.Neighbor) int { return byID(a, b.ID) })
	if req.Cursor != nil {
		at, found := slices.BinarySearchFunc(members, *req.Cursor, byID)
		if found { // ids are distinct: resume just past the cursor's own id
			at++
		}
		members = members[at:]
	}
	resp := neighborsResponse{
		Graph:     d.Name,
		Source:    req.Source,
		K:         ball.K,
		Direction: dir,
		Epoch:     ball.Epoch,
		Total:     ball.Total,
	}
	if len(members) > limit {
		members = members[:limit]
		resp.NextCursor = intPtr(members[len(members)-1].ID)
	}
	resp.Count = len(members)
	resp.Neighbors = make([]neighborEntry, len(members))
	for i, nb := range members {
		resp.Neighbors[i] = neighborEntry{ID: nb.ID, Bucket: nb.Bucket.String()}
	}
	writeJSON(w, http.StatusOK, resp)
}
