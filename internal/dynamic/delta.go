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
// Two dirty bitmaps (one bit per vertex, out- and in-side) mark every
// vertex that carries a delta on that side. A clear bit means the vertex's
// live adjacency is exactly its base CSR slice, so the BFS and query paths
// read that slice directly instead of probing four maps; only the few
// dirty vertices pay for the merge. A bit is set whenever AddEdge or
// RemoveEdge inserts a delta entry and cleared when the vertex's last
// entry on that side leaves, so a sliding window of live insertions keeps
// only the window's endpoints dirty.
//
// DeltaGraph itself is not synchronized; the owning Index serializes
// writers and excludes them from readers.
type DeltaGraph struct {
	base   *graph.Graph
	addOut map[graph.Vertex][]graph.Vertex
	addIn  map[graph.Vertex][]graph.Vertex
	remOut map[graph.Vertex][]graph.Vertex
	remIn  map[graph.Vertex][]graph.Vertex

	dirtyOut, dirtyIn []uint64 // bit v: v carries an out-/in-delta

	added   int // live added-edge count
	removed int // live removed-edge count
}

// NewDeltaGraph returns an overlay with no deltas over base.
func NewDeltaGraph(base *graph.Graph) *DeltaGraph {
	words := (base.NumVertices() + 63) / 64
	return &DeltaGraph{
		base:     base,
		addOut:   make(map[graph.Vertex][]graph.Vertex),
		addIn:    make(map[graph.Vertex][]graph.Vertex),
		remOut:   make(map[graph.Vertex][]graph.Vertex),
		remIn:    make(map[graph.Vertex][]graph.Vertex),
		dirtyOut: make([]uint64, words),
		dirtyIn:  make([]uint64, words),
	}
}

func isDirty(bits []uint64, v graph.Vertex) bool { return bits[v>>6]&(1<<(v&63)) != 0 }

func markDirty(bits []uint64, v graph.Vertex) { bits[v>>6] |= 1 << (v & 63) }

func clearDirty(bits []uint64, v graph.Vertex) { bits[v>>6] &^= 1 << (v & 63) }

// outDelta returns v's added and removed out-lists; both are nil, without
// a map lookup, when v is clean.
func (d *DeltaGraph) outDelta(v graph.Vertex) (add, rem []graph.Vertex) {
	if !isDirty(d.dirtyOut, v) {
		return nil, nil
	}
	return d.addOut[v], d.remOut[v]
}

// inDelta is outDelta for the in-side.
func (d *DeltaGraph) inDelta(v graph.Vertex) (add, rem []graph.Vertex) {
	if !isDirty(d.dirtyIn, v) {
		return nil, nil
	}
	return d.addIn[v], d.remIn[v]
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
	add, rem := d.outDelta(u)
	if sortedContains(rem, v) {
		return false
	}
	return d.base.HasEdge(u, v) || sortedContains(add, v)
}

// OutDegree returns the live out-degree of v.
func (d *DeltaGraph) OutDegree(v graph.Vertex) int {
	add, rem := d.outDelta(v)
	return d.base.OutDegree(v) - len(rem) + len(add)
}

// InDegree returns the live in-degree of v.
func (d *DeltaGraph) InDegree(v graph.Vertex) int {
	add, rem := d.inDelta(v)
	return d.base.InDegree(v) - len(rem) + len(add)
}

// AddEdge inserts (u, v); it reports false if the edge already exists
// (duplicate). Endpoints must be in range (the Index validates).
func (d *DeltaGraph) AddEdge(u, v graph.Vertex) bool {
	add, rem := d.outDelta(u)
	if sortedContains(rem, v) {
		// Un-remove a base edge.
		d.remOut[u] = sortedDelete(rem, v)
		d.remIn[v] = sortedDelete(d.remIn[v], u)
		d.settle(u, v)
		d.removed--
		return true
	}
	if d.base.HasEdge(u, v) || sortedContains(add, v) {
		return false
	}
	markDirty(d.dirtyOut, u)
	markDirty(d.dirtyIn, v)
	d.addOut[u] = sortedInsert(add, v)
	d.addIn[v] = sortedInsert(d.addIn[v], u)
	d.added++
	return true
}

// RemoveEdge deletes (u, v); it reports false if the edge does not exist.
func (d *DeltaGraph) RemoveEdge(u, v graph.Vertex) bool {
	add, rem := d.outDelta(u)
	if sortedContains(add, v) {
		// Un-add an overlay edge.
		d.addOut[u] = sortedDelete(add, v)
		d.addIn[v] = sortedDelete(d.addIn[v], u)
		d.settle(u, v)
		d.added--
		return true
	}
	if !d.base.HasEdge(u, v) || sortedContains(rem, v) {
		return false
	}
	markDirty(d.dirtyOut, u)
	markDirty(d.dirtyIn, v)
	d.remOut[u] = sortedInsert(rem, v)
	d.remIn[v] = sortedInsert(d.remIn[v], u)
	d.removed++
	return true
}

// settle runs after an entry of edge (u, v) leaves the delta lists: a side
// whose two lists are now empty drops its map entries and its dirty bit,
// so churn that cancels out — an edge added and later removed — leaves the
// vertex on the map-free path again.
func (d *DeltaGraph) settle(u, v graph.Vertex) {
	if len(d.addOut[u]) == 0 && len(d.remOut[u]) == 0 {
		delete(d.addOut, u)
		delete(d.remOut, u)
		clearDirty(d.dirtyOut, u)
	}
	if len(d.addIn[v]) == 0 && len(d.remIn[v]) == 0 {
		delete(d.addIn, v)
		delete(d.remIn, v)
		clearDirty(d.dirtyIn, v)
	}
}

// appendMerged merges a sorted base adjacency list with sorted added
// entries, skipping sorted removed entries, appending onto buf.
func appendMerged(buf, base, add, rem []graph.Vertex) []graph.Vertex {
	i, j, r := 0, 0, 0
	for i < len(base) {
		v := base[i]
		i++
		for r < len(rem) && rem[r] < v {
			r++
		}
		if r < len(rem) && rem[r] == v {
			continue
		}
		for j < len(add) && add[j] < v {
			buf = append(buf, add[j])
			j++
		}
		buf = append(buf, v)
	}
	return append(buf, add[j:]...)
}

// AppendOutNeighbors appends the sorted live out-neighbors of v onto buf
// and returns the extended slice. The append-into-caller-buffer shape keeps
// the query hot path allocation-free once scratch buffers have warmed up.
func (d *DeltaGraph) AppendOutNeighbors(v graph.Vertex, buf []graph.Vertex) []graph.Vertex {
	add, rem := d.outDelta(v)
	return appendMerged(buf, d.base.OutNeighbors(v), add, rem)
}

// AppendInNeighbors appends the sorted live in-neighbors of v onto buf and
// returns the extended slice.
func (d *DeltaGraph) AppendInNeighbors(v graph.Vertex, buf []graph.Vertex) []graph.Vertex {
	add, rem := d.inDelta(v)
	return appendMerged(buf, d.base.InNeighbors(v), add, rem)
}

// outNeighbors returns the sorted live out-neighbors of v without copying
// when v is clean: the result is then the base CSR slice itself, so callers
// must neither modify nor append to it. A dirty vertex's list is merged
// into *buf, which never aliases the base.
func (d *DeltaGraph) outNeighbors(v graph.Vertex, buf *[]graph.Vertex) []graph.Vertex {
	if !isDirty(d.dirtyOut, v) {
		return d.base.OutNeighbors(v)
	}
	*buf = d.AppendOutNeighbors(v, (*buf)[:0])
	return *buf
}

// inNeighbors is outNeighbors for the in-side.
func (d *DeltaGraph) inNeighbors(v graph.Vertex, buf *[]graph.Vertex) []graph.Vertex {
	if !isDirty(d.dirtyIn, v) {
		return d.base.InNeighbors(v)
	}
	*buf = d.AppendInNeighbors(v, (*buf)[:0])
	return *buf
}

// forEachOut visits every live out-neighbor of v (unordered: base entries
// first, then added ones). Enumeration drives core.BallBFS with it.
func (d *DeltaGraph) forEachOut(v graph.Vertex, fn func(w graph.Vertex)) {
	add, rem := d.outDelta(v)
	forEachLive(d.base.OutNeighbors(v), add, rem, fn)
}

// forEachIn visits every live in-neighbor of v (unordered).
func (d *DeltaGraph) forEachIn(v graph.Vertex, fn func(w graph.Vertex)) {
	add, rem := d.inDelta(v)
	forEachLive(d.base.InNeighbors(v), add, rem, fn)
}

func forEachLive(base, add, rem []graph.Vertex, fn func(w graph.Vertex)) {
	for _, w := range base {
		if len(rem) == 0 || !sortedContains(rem, w) {
			fn(w)
		}
	}
	for _, w := range add {
		fn(w)
	}
}

// AddedEdges returns the live added-edge delta as an edge list.
func (d *DeltaGraph) AddedEdges() []graph.Edge {
	out := make([]graph.Edge, 0, d.added)
	for u, vs := range d.addOut {
		for _, v := range vs {
			out = append(out, graph.Edge{Src: u, Dst: v})
		}
	}
	return out
}

// RemovedEdges returns the live removed-edge delta as an edge list.
func (d *DeltaGraph) RemovedEdges() []graph.Edge {
	out := make([]graph.Edge, 0, d.removed)
	for u, vs := range d.remOut {
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
