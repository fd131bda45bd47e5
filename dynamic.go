package kreach

import (
	"kreach/internal/dynamic"
	"kreach/internal/graph"
)

// This file is the public face of the dynamic (mutable) layer: a k-reach
// index that accepts online edge insertions and deletions with incremental
// maintenance, plus compaction back into an immutable snapshot. See
// kreach/internal/dynamic for the algorithmic details.

// ErrRetired reports a mutation against a DynamicIndex that has been
// replaced by a newer snapshot (compaction or reload); re-resolve the
// current snapshot and retry.
var ErrRetired = dynamic.ErrRetired

// ErrCompacting reports a Compact call while another is already running.
var ErrCompacting = dynamic.ErrCompacting

// DynamicOptions configures NewDynamicIndex.
type DynamicOptions struct {
	// K is the hop bound; it must be finite and ≥ 1. The incremental
	// maintenance locality argument (edge changes only disturb cover rows
	// within k hops) has no bound for classic reachability, so Unbounded is
	// rejected.
	K int
	// Cover selects the initial vertex-cover heuristic (default
	// RandomEdgeCover; the cover then grows online as insertions demand).
	Cover CoverStrategy
	// Seed drives randomized cover selection.
	Seed uint64
	// Parallelism bounds BFS workers during full (re)builds and when a
	// mutation batch re-derives its affected rows (0 = GOMAXPROCS).
	Parallelism int
	// CompactRatio is the overlay-to-base edge ratio at which
	// ShouldCompact reports true (0 = a default of 0.25).
	CompactRatio float64
}

// DynamicIndex is a mutable k-reach index: queries answer against the live
// edge set (base graph plus an in-memory overlay) and Mutate applies
// batched edge changes with incremental index maintenance. All methods are
// safe for concurrent use; see Mutate and Compact for the write-path
// semantics.
type DynamicIndex struct {
	d *dynamic.Index
	g *Graph // the base graph; mutations never change its vertex range
}

// NewDynamicIndex builds a mutable k-reach index over g. The graph is used
// as the immutable base; it is never modified.
func NewDynamicIndex(g *Graph, opts DynamicOptions) (*DynamicIndex, error) {
	d, err := dynamic.New(g.g, dynamic.Options{
		K:            opts.K,
		Strategy:     opts.Cover.internal(),
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
		CompactRatio: opts.CompactRatio,
	})
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{d: d, g: g}, nil
}

// MutationResult reports what one Mutate batch did.
type MutationResult struct {
	Added          int    // edge insertions applied
	Removed        int    // edge deletions applied
	DupAdds        int    // insertions of edges that already existed
	MissingRemoves int    // deletions of edges that did not exist
	UnknownVertex  int    // operations dropped for out-of-range endpoints
	Promoted       int    // vertices promoted into the vertex cover
	RowsRecomputed int    // cover rows re-derived by bounded BFS
	RowsRelaxed    int    // other cover rows an insertion or promotion changed
	Epoch          uint64 // the epoch issued for the post-batch state
}

// Applied reports whether the batch changed the edge set.
func (r MutationResult) Applied() bool { return r.Added+r.Removed > 0 }

// Mutate applies one batch of edge changes — removals first, then
// insertions — and incrementally repairs the index. Out-of-range endpoints
// are counted, not fatal. Batches serialize with each other; queries are
// excluded only during the apply step. Returns ErrRetired once a successor
// snapshot has been published.
func (ix *DynamicIndex) Mutate(add, remove [][2]int) (MutationResult, error) {
	res, err := ix.d.Mutate(toEdges(add), toEdges(remove))
	return mutationResult(res), err
}

// ApplyRecord applies one replicated mutation record under the epoch the
// primary issued for it: the batch adopts that epoch instead of a fresh
// local generation (same epoch ⇔ same state on both sides), and — when the
// index was opened durably — the record is journaled to the follower's own
// log first, so a restart recovers to the identical epoch. An explicitly
// empty record (no adds, no removes) is an epoch marker: it renames the
// current edge set to the given epoch, which is how followers adopt a
// primary compaction's successor epoch. The epoch must be nonzero.
func (ix *DynamicIndex) ApplyRecord(add, remove [][2]int, epoch uint64) (MutationResult, error) {
	res, err := ix.d.ApplyRecord(toEdges(add), toEdges(remove), epoch)
	return mutationResult(res), err
}

func mutationResult(res dynamic.MutationResult) MutationResult {
	return MutationResult{
		Added:          res.Added,
		Removed:        res.Removed,
		DupAdds:        res.DupAdds,
		MissingRemoves: res.MissingRemoves,
		UnknownVertex:  res.UnknownVertex,
		Promoted:       res.Promoted,
		RowsRecomputed: res.RowsRecomputed,
		RowsRelaxed:    res.RowsRelaxed,
		Epoch:          res.Epoch,
	}
}

func toEdges(pairs [][2]int) []graph.Edge {
	es := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		// Clamp out-of-int32 endpoints to -1: Mutate counts them as
		// unknown-vertex instead of silently truncating.
		es[i] = graph.Edge{Src: clampVertex(p[0]), Dst: clampVertex(p[1])}
	}
	return es
}

func clampVertex(v int) graph.Vertex {
	if v < 0 || v > 1<<31-2 {
		return -1
	}
	return graph.Vertex(v)
}

// Reach reports whether t is reachable from s within k hops of the live
// edge set. Safe for concurrent use, including concurrently with Mutate.
// It is the concrete-type shorthand for ReachK with UseIndexK; new code
// that may hold any Reacher should prefer ReachK.
func (ix *DynamicIndex) Reach(s, t int) bool {
	ix.g.check(s)
	ix.g.check(t)
	return ix.d.Reach(graph.Vertex(s), graph.Vertex(t), nil)
}

// K returns the hop bound.
func (ix *DynamicIndex) K() int { return ix.d.K() }

// Epoch returns the current process-unique generation. Unlike the static
// indexes, it advances on every applied mutation batch, so epoch-keyed
// result caches self-invalidate as the graph changes.
func (ix *DynamicIndex) Epoch() uint64 { return ix.d.Epoch() }

// NumVertices returns n (fixed; mutations are edge-only).
func (ix *DynamicIndex) NumVertices() int { return ix.g.NumVertices() }

// NumEdges returns the live edge count with the overlay applied.
func (ix *DynamicIndex) NumEdges() int { return ix.d.Stats().LiveEdges }

// CoverSize returns the current vertex-cover size (it can grow as
// insertions promote vertices).
func (ix *DynamicIndex) CoverSize() int { return ix.d.Stats().CoverSize }

// SizeBytes estimates the resident index size.
func (ix *DynamicIndex) SizeBytes() int { return ix.d.SizeBytes() }

// ShouldCompact reports whether the overlay has outgrown the configured
// ratio of the base graph.
func (ix *DynamicIndex) ShouldCompact() bool { return ix.d.ShouldCompact() }

// Retired reports whether a successor snapshot has replaced this index.
func (ix *DynamicIndex) Retired() bool { return ix.d.Retired() }

// Retire marks this index as replaced: subsequent Mutate/Compact calls
// fail with ErrRetired. Serving layers call it when a swap displaces a
// dynamic snapshot, so no mutation can land on an unpublished index.
func (ix *DynamicIndex) Retire() { ix.d.Retire() }

// Compact merges the overlay into a fresh immutable graph, rebuilds the
// index over it off the serving path, and calls publish with the
// replacement while mutations (not reads) are blocked. If publish returns
// nil — or is nil — this index is retired and the successor returned; on
// error the successor is discarded and this index keeps serving.
func (ix *DynamicIndex) Compact(publish func(next *DynamicIndex, g *Graph) error) (*DynamicIndex, *Graph, error) {
	var outG *Graph
	var outIx *DynamicIndex
	_, err := ix.d.Compact(func(nd *dynamic.Index, ng *graph.Graph) error {
		outG = &Graph{g: ng}
		outIx = &DynamicIndex{d: nd, g: outG}
		if publish == nil {
			return nil
		}
		return publish(outIx, outG)
	})
	if err != nil {
		return nil, nil, err
	}
	return outIx, outG, nil
}

// DynamicStats is a point-in-time snapshot of a DynamicIndex and its
// cumulative mutation history (counters survive compactions).
type DynamicStats struct {
	Epoch     uint64
	K         int
	CoverSize int
	IndexArcs int

	BaseEdges    int
	LiveEdges    int
	DeltaAdded   int
	DeltaRemoved int

	MutationBatches uint64
	EdgesAdded      uint64
	EdgesRemoved    uint64
	Promotions      uint64
	RowsRecomputed  uint64
	RowsRelaxed     uint64
	MaintenanceBFS  uint64
	Compactions     uint64
}

// DynStats returns a consistent snapshot of the dynamic counters. It is
// the concrete-type shorthand for Stats().Dynamic.
func (ix *DynamicIndex) DynStats() DynamicStats { return ix.dynStats() }

func (ix *DynamicIndex) dynStats() DynamicStats {
	st := ix.d.Stats()
	return DynamicStats{
		Epoch:           st.Epoch,
		K:               st.K,
		CoverSize:       st.CoverSize,
		IndexArcs:       st.IndexArcs,
		BaseEdges:       st.BaseEdges,
		LiveEdges:       st.LiveEdges,
		DeltaAdded:      st.DeltaAdded,
		DeltaRemoved:    st.DeltaRemoved,
		MutationBatches: st.MutationBatches,
		EdgesAdded:      st.EdgesAdded,
		EdgesRemoved:    st.EdgesRemoved,
		Promotions:      st.Promotions,
		RowsRecomputed:  st.RowsRecomputed,
		RowsRelaxed:     st.RowsRelaxed,
		MaintenanceBFS:  st.MaintenanceBFS,
		Compactions:     st.Compactions,
	}
}
