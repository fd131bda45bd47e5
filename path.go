package kreach

import (
	"kreach/internal/core"
	"kreach/internal/graph"
)

// Execution-path names reported by ExecPathReporter and recorded in the
// server's slow-query traces. They name *how* a query was answered, not
// whether it succeeded.
const (
	// PathCacheHit: answered from a serving-layer result cache. Reported
	// only by serving layers — the indexes themselves never see cache hits.
	PathCacheHit = core.PathCacheHit
	// PathCoverRow: answered through the index's cover rows.
	PathCoverRow = core.PathCoverRow
	// PathBFSFallback: answered by the exact bounded-BFS fallback.
	PathBFSFallback = core.PathBFSFallback
)

// ExecPathReporter is the optional Reacher capability for classifying which
// execution path a query takes, without running it. Serving layers probe
// for it with a type assertion to annotate slow-query traces; backends that
// cannot classify simply do not implement it.
//
// Both methods follow ReachK's hop-bound conventions (UseIndexK, negative =
// classic reachability; fixed-k variants ignore the bound — the path does
// not depend on it). Vertices must be in range; classification never runs
// the query and costs O(1).
type ExecPathReporter interface {
	// ReachPath names the path ReachK(s, t, k) would take.
	ReachPath(s, t, k int) string
	// EnumPath names the path ReachFrom (forward) or ReachInto (backward)
	// would take from v.
	EnumPath(v, k int, forward bool) string
}

// The four built-in variants are the reference reporters.
var (
	_ ExecPathReporter = (*Index)(nil)
	_ ExecPathReporter = (*HKIndex)(nil)
	_ ExecPathReporter = (*MultiIndex)(nil)
	_ ExecPathReporter = (*DynamicIndex)(nil)
)

func enumDir(forward bool) graph.Direction {
	if forward {
		return graph.Forward
	}
	return graph.Backward
}

// ReachPath implements ExecPathReporter. The hop bound is ignored — a
// fixed-k index answers every accepted bound the same way.
func (ix *Index) ReachPath(s, t, _ int) string {
	ix.g.check(s)
	ix.g.check(t)
	return ix.ix.ReachPath(graph.Vertex(s), graph.Vertex(t))
}

// EnumPath implements ExecPathReporter.
func (ix *Index) EnumPath(v, _ int, forward bool) string {
	ix.g.check(v)
	return ix.ix.EnumPath(graph.Vertex(v), enumDir(forward))
}

// ReachPath implements ExecPathReporter.
func (ix *HKIndex) ReachPath(s, t, _ int) string {
	ix.g.check(s)
	ix.g.check(t)
	return ix.ix.ReachPath(graph.Vertex(s), graph.Vertex(t))
}

// EnumPath implements ExecPathReporter.
func (ix *HKIndex) EnumPath(v, _ int, forward bool) string {
	ix.g.check(v)
	return ix.ix.EnumPath(graph.Vertex(v), enumDir(forward))
}

// ReachPath implements ExecPathReporter. The hop bound is ignored — every
// rung answers pairwise through cover rows.
func (ix *MultiIndex) ReachPath(s, t, _ int) string {
	ix.g.check(s)
	ix.g.check(t)
	return ix.m.ReachPath(graph.Vertex(s), graph.Vertex(t))
}

// EnumPath implements ExecPathReporter.
func (ix *MultiIndex) EnumPath(v, k int, forward bool) string {
	ix.g.check(v)
	return ix.m.EnumPath(graph.Vertex(v), ix.NormalizeK(k), enumDir(forward))
}

// ReachPath implements ExecPathReporter.
func (ix *DynamicIndex) ReachPath(s, t, _ int) string {
	ix.g.check(s)
	ix.g.check(t)
	return ix.d.ReachPath(graph.Vertex(s), graph.Vertex(t))
}

// EnumPath implements ExecPathReporter.
func (ix *DynamicIndex) EnumPath(v, _ int, forward bool) string {
	ix.g.check(v)
	return ix.d.EnumPath(graph.Vertex(v), enumDir(forward))
}
