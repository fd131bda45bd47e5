package dynamic

import (
	"slices"

	"kreach/internal/graph"
)

// DeltaGraph overlays per-vertex added/removed adjacency deltas on an
// immutable base CSR graph. It serves the adjacency surface the query path
// uses — OutNeighbors/InNeighbors (appended into caller buffers), HasEdge
// and degrees — with the deltas applied, so Algorithm 2 answers against
// the live edge set mid-mutation.
//
// Invariants (maintained by AddEdge/RemoveEdge):
//
//   - added lists hold only edges absent from base;
//   - removed lists hold only edges present in base;
//   - re-adding a removed base edge un-removes it, removing an added edge
//     un-adds it, so the two delta sets are always disjoint.
//
// All per-vertex delta lists are kept sorted; they are expected to stay
// short between compactions, so inserts are simple O(len) shifts.
//
// The deltas live in a graph.Overlay, the form the BFS engine expands
// directly. Its two dirty bitmaps (one bit per vertex, out- and in-side)
// mark every vertex that carries a delta on that side. A clear bit means
// the vertex's live adjacency is exactly its base CSR slice, so the BFS and
// query paths read that slice directly instead of probing four maps; only
// the few dirty vertices pay for the merge. A bit is set whenever AddEdge or
// RemoveEdge inserts a delta entry and cleared when the vertex's last
// entry on that side leaves, so a sliding window of live insertions keeps
// only the window's endpoints dirty.
//
// DeltaGraph itself is not synchronized; the owning Index serializes
// writers and excludes them from readers.
type DeltaGraph struct {
	base *graph.Graph
	ov   graph.Overlay

	added   int // live added-edge count
	removed int // live removed-edge count
}

// The overlay's sides, as graph.Overlay indexes them.
const (
	outSide = graph.Forward
	inSide  = graph.Backward
)

// NewDeltaGraph returns an overlay with no deltas over base.
func NewDeltaGraph(base *graph.Graph) *DeltaGraph {
	return &DeltaGraph{base: base, ov: graph.NewOverlay(base.NumVertices())}
}

func isDirty(bits []uint64, v graph.Vertex) bool { return bits[v>>6]&(1<<(v&63)) != 0 }

func markDirty(bits []uint64, v graph.Vertex) { bits[v>>6] |= 1 << (v & 63) }

func clearDirty(bits []uint64, v graph.Vertex) { bits[v>>6] &^= 1 << (v & 63) }

// delta returns v's added and removed lists on side dir; both are nil,
// without a map lookup, when v is clean.
func (d *DeltaGraph) delta(dir graph.Direction, v graph.Vertex) (add, rem []graph.Vertex) {
	if !isDirty(d.ov.Dirty[dir], v) {
		return nil, nil
	}
	return d.ov.Add[dir][v], d.ov.Rem[dir][v]
}

// Base returns the underlying immutable graph.
func (d *DeltaGraph) Base() *graph.Graph { return d.base }

// NumVertices returns n. Mutations are edge-only; the vertex set is fixed
// until a compaction swaps in a new base.
func (d *DeltaGraph) NumVertices() int { return d.base.NumVertices() }

// NumEdges returns the live directed edge count with deltas applied.
func (d *DeltaGraph) NumEdges() int { return d.base.NumEdges() + d.added - d.removed }

// DeltaSize returns the number of overlay entries (added plus removed
// edges); the compaction trigger compares it against the base edge count.
func (d *DeltaGraph) DeltaSize() int { return d.added + d.removed }

// Added returns the live added-edge count.
func (d *DeltaGraph) Added() int { return d.added }

// Removed returns the live removed-edge count.
func (d *DeltaGraph) Removed() int { return d.removed }

func sortedContains(s []graph.Vertex, v graph.Vertex) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

func sortedInsert(s []graph.Vertex, v graph.Vertex) []graph.Vertex {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

func sortedDelete(s []graph.Vertex, v graph.Vertex) []graph.Vertex {
	if i, ok := slices.BinarySearch(s, v); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// HasEdge reports whether the directed edge (u, v) exists in the live
// edge set.
func (d *DeltaGraph) HasEdge(u, v graph.Vertex) bool {
	add, rem := d.delta(outSide, u)
	if sortedContains(rem, v) {
		return false
	}
	return d.base.HasEdge(u, v) || sortedContains(add, v)
}

// OutDegree returns the live out-degree of v.
func (d *DeltaGraph) OutDegree(v graph.Vertex) int {
	add, rem := d.delta(outSide, v)
	return d.base.OutDegree(v) - len(rem) + len(add)
}

// InDegree returns the live in-degree of v.
func (d *DeltaGraph) InDegree(v graph.Vertex) int {
	add, rem := d.delta(inSide, v)
	return d.base.InDegree(v) - len(rem) + len(add)
}

// AddEdge inserts (u, v); it reports false if the edge already exists
// (duplicate). Endpoints must be in range (the Index validates).
func (d *DeltaGraph) AddEdge(u, v graph.Vertex) bool {
	add, rem := d.delta(outSide, u)
	if sortedContains(rem, v) {
		// Un-remove a base edge.
		d.unlist(&d.ov.Rem, u, v)
		d.removed--
		return true
	}
	if d.base.HasEdge(u, v) || sortedContains(add, v) {
		return false
	}
	d.list(&d.ov.Add, u, v)
	d.added++
	return true
}

// RemoveEdge deletes (u, v); it reports false if the edge does not exist.
func (d *DeltaGraph) RemoveEdge(u, v graph.Vertex) bool {
	add, rem := d.delta(outSide, u)
	if sortedContains(add, v) {
		// Un-add an overlay edge.
		d.unlist(&d.ov.Add, u, v)
		d.added--
		return true
	}
	if !d.base.HasEdge(u, v) || sortedContains(rem, v) {
		return false
	}
	d.list(&d.ov.Rem, u, v)
	d.removed++
	return true
}

// list enters edge (u, v) into lists (the overlay's Add or Rem), on the
// out-side of u and the in-side of v, and marks both dirty.
func (d *DeltaGraph) list(lists *[2]map[graph.Vertex][]graph.Vertex, u, v graph.Vertex) {
	for dir, end := range [2][2]graph.Vertex{outSide: {u, v}, inSide: {v, u}} {
		markDirty(d.ov.Dirty[dir], end[0])
		lists[dir][end[0]] = sortedInsert(lists[dir][end[0]], end[1])
	}
}

// unlist takes edge (u, v) out of lists again. A side whose two lists are
// then empty drops its map entries and its dirty bit, so churn that
// cancels out — an edge added and later removed — leaves the vertex on the
// map-free path again.
func (d *DeltaGraph) unlist(lists *[2]map[graph.Vertex][]graph.Vertex, u, v graph.Vertex) {
	for dir, end := range [2][2]graph.Vertex{outSide: {u, v}, inSide: {v, u}} {
		x := end[0]
		lists[dir][x] = sortedDelete(lists[dir][x], end[1])
		if len(d.ov.Add[dir][x]) == 0 && len(d.ov.Rem[dir][x]) == 0 {
			delete(d.ov.Add[dir], x)
			delete(d.ov.Rem[dir], x)
			clearDirty(d.ov.Dirty[dir], x)
		}
	}
}

// AppendOutNeighbors appends the sorted live out-neighbors of v onto buf
// and returns the extended slice. The append-into-caller-buffer shape keeps
// the query hot path allocation-free once scratch buffers have warmed up.
func (d *DeltaGraph) AppendOutNeighbors(v graph.Vertex, buf []graph.Vertex) []graph.Vertex {
	add, rem := d.delta(outSide, v)
	return graph.AppendLive(buf, d.base.OutNeighbors(v), add, rem)
}

// AppendInNeighbors appends the sorted live in-neighbors of v onto buf and
// returns the extended slice.
func (d *DeltaGraph) AppendInNeighbors(v graph.Vertex, buf []graph.Vertex) []graph.Vertex {
	add, rem := d.delta(inSide, v)
	return graph.AppendLive(buf, d.base.InNeighbors(v), add, rem)
}

// outNeighbors returns the sorted live out-neighbors of v without copying
// when v is clean: the result is then the base CSR slice itself, so callers
// must neither modify nor append to it. A dirty vertex's list is merged
// into *buf, which never aliases the base.
func (d *DeltaGraph) outNeighbors(v graph.Vertex, buf *[]graph.Vertex) []graph.Vertex {
	if !isDirty(d.ov.Dirty[outSide], v) {
		return d.base.OutNeighbors(v)
	}
	*buf = d.AppendOutNeighbors(v, (*buf)[:0])
	return *buf
}

// inNeighbors is outNeighbors for the in-side.
func (d *DeltaGraph) inNeighbors(v graph.Vertex, buf *[]graph.Vertex) []graph.Vertex {
	if !isDirty(d.ov.Dirty[inSide], v) {
		return d.base.InNeighbors(v)
	}
	*buf = d.AppendInNeighbors(v, (*buf)[:0])
	return *buf
}

// AddedEdges returns the live added-edge delta as an edge list.
func (d *DeltaGraph) AddedEdges() []graph.Edge {
	out := make([]graph.Edge, 0, d.added)
	for u, vs := range d.ov.Add[outSide] {
		for _, v := range vs {
			out = append(out, graph.Edge{Src: u, Dst: v})
		}
	}
	return out
}

// RemovedEdges returns the live removed-edge delta as an edge list.
func (d *DeltaGraph) RemovedEdges() []graph.Edge {
	out := make([]graph.Edge, 0, d.removed)
	for u, vs := range d.ov.Rem[outSide] {
		for _, v := range vs {
			out = append(out, graph.Edge{Src: u, Dst: v})
		}
	}
	return out
}

// Materialize merges the overlay into a fresh immutable CSR graph via
// graph.Rebuild; the compactor's first step.
func (d *DeltaGraph) Materialize() *graph.Graph {
	return graph.Rebuild(d.base, d.AddedEdges(), d.RemovedEdges())
}
