package graph

import (
	"fmt"
	"slices"
)

// Rebuild materializes a fresh CSR graph from a base graph plus edge
// deltas: the result is (base ∖ remove) ∪ add. It is the compaction
// primitive of the dynamic layer — an overlay's accumulated deltas are
// merged into a new immutable graph in one pass, without routing every
// base edge through a Builder.
//
// Semantics:
//
//   - removes that name edges absent from base are ignored;
//   - adds that duplicate base edges (or each other) collapse to one edge;
//   - an edge in both add and remove ends up present (the union with add
//     is applied after the subtraction), though callers maintaining the
//     overlay invariant never produce that overlap.
//
// Vertices cannot be added or removed; every delta endpoint must lie in
// [0, base.NumVertices()), like Builder.AddEdge it panics otherwise.
func Rebuild(base *Graph, add, remove []Edge) *Graph {
	n := base.NumVertices()
	addS := sortDedupEdges(n, add)
	remS := sortDedupEdges(n, remove)
	edges := make([]Edge, 0, base.NumEdges()+len(addS))
	ai, ri := 0, 0
	for u := 0; u < n; u++ {
		src := Vertex(u)
		out := base.OutNeighbors(src)
		// Per-source slices of the sorted delta lists.
		aLo := ai
		for ai < len(addS) && addS[ai].Src == src {
			ai++
		}
		rLo := ri
		for ri < len(remS) && remS[ri].Src == src {
			ri++
		}
		adds, rems := addS[aLo:ai], remS[rLo:ri]
		// Merge (out ∖ rems) with adds; both streams are sorted by dst.
		j, k, r := 0, 0, 0
		for j < len(out) || k < len(adds) {
			var v Vertex
			takeBase := false
			switch {
			case k >= len(adds):
				v, takeBase = out[j], true
			case j >= len(out):
				v = adds[k].Dst
			case out[j] <= adds[k].Dst:
				v, takeBase = out[j], true
			default:
				v = adds[k].Dst
			}
			if takeBase {
				j++
				dup := k < len(adds) && adds[k].Dst == v
				if dup {
					k++ // add duplicates a base edge: keep one copy
				}
				for r < len(rems) && rems[r].Dst < v {
					r++
				}
				if r < len(rems) && rems[r].Dst == v && !dup {
					continue // removed base edge not re-added
				}
			} else {
				k++
			}
			edges = append(edges, Edge{Src: src, Dst: v})
		}
	}
	return FromSortedEdges(n, edges)
}

// sortDedupEdges copies, range-checks, sorts by (src, dst) and
// deduplicates a delta edge list.
func sortDedupEdges(n int, in []Edge) []Edge {
	if len(in) == 0 {
		return nil
	}
	es := make([]Edge, len(in))
	copy(es, in)
	for _, e := range es {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: delta edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n))
		}
	}
	slices.SortFunc(es, compareEdges)
	return slices.Compact(es)
}
