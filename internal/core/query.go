package core

import (
	"sync"

	"kreach/internal/bitvec"
	"kreach/internal/graph"
)

// This file implements Algorithm 2: query processing with the k-reach
// index. A query (s, t) falls into one of four cases by cover membership;
// each case reduces to at most one adjacency-list intersection against the
// index graph.
//
// The intersections run over word-parallel kernels (internal/bitvec): the
// in-neighbor cover ids of Case 4 are staged as a pooled bitmap over cover
// ids, hub rows are intersected with it 64 lanes per word
// (WeightRow.AnyLEMasked), and CSR-only rows probe it in O(1) per entry —
// no per-query sorting, no binary search against the neighbor list.
//
// A mutable index (NewMutable) answers through the same code: its rows are
// per-row arc slices searched one at a time, and the adjacency of a vertex
// its overlay marks dirty is merged into the scratch. Only that merge and
// Case 4's bitmap use scratch, so only they borrow one from the pool.
//
// Two degenerate situations the paper's pseudocode leaves implicit are
// handled explicitly (see DESIGN.md §5): s = t answers true for any k ≥ 0,
// and the "index distance" of a cover vertex to itself is 0, which makes
// the Case 2–4 weight comparisons correct when the covering neighbor is the
// query's own cover endpoint (e.g. the direct edge (s,t) in Case 2).

// QueryCase identifies which branch of Algorithm 2 a query falls into,
// reported for the Table 8 experiment.
type QueryCase int

const (
	// CaseEqual is the degenerate s = t query (not counted by the paper).
	CaseEqual QueryCase = iota
	// Case1 has both endpoints in the vertex cover.
	Case1
	// Case2 has only the source in the vertex cover.
	Case2
	// Case3 has only the target in the vertex cover.
	Case3
	// Case4 has neither endpoint in the vertex cover.
	Case4
)

func (c QueryCase) String() string {
	switch c {
	case CaseEqual:
		return "s=t"
	case Case1:
		return "case1"
	case Case2:
		return "case2"
	case Case3:
		return "case3"
	case Case4:
		return "case4"
	}
	return "?"
}

// Classify reports the Algorithm 2 case of the query (s, t).
func (ix *Index) Classify(s, t graph.Vertex) QueryCase {
	switch {
	case s == t:
		return CaseEqual
	case ix.InCover(s) && ix.InCover(t):
		return Case1
	case ix.InCover(s):
		return Case2
	case ix.InCover(t):
		return Case3
	default:
		return Case4
	}
}

// QueryScratch holds the buffers of the probes that stage anything: Case
// 4's mask and a dirty vertex's merged neighbor list (mutable index); Cases
// 1–3 on clean lists use none of it. The mask is a bitmap over cover ids:
// Case 4 raises the bits of inNei(t)'s cover ids, intersects rows against
// it, and lowers exactly those bits before returning, so the all-clear
// invariant holds between queries (and across indexes of different cover
// sizes). ReachBatch keeps its staged kernel's fixed-size queues here too,
// one scratch per worker, so a worker's allocations do not grow with the
// batch.
type QueryScratch struct {
	in    []int32        // cover ids of inNei(t), deduplicated (Case 4)
	mask  []uint64       // cover-id bitmap; all-zero between queries
	nbrs  []graph.Vertex // a dirty vertex's live neighbors (mutable index)
	stage stageScratch
}

// NewQueryScratch returns scratch space for queries against any index.
func NewQueryScratch() *QueryScratch { return &QueryScratch{} }

// queryScratch lends a QueryScratch to a Reach called without one, on the
// probes that stage anything.
var queryScratch = sync.Pool{New: func() any { return NewQueryScratch() }}

// Reach reports whether s →k t, i.e. whether t is reachable from s within
// the k the index was built for (any path length for n-reach), on a
// mutable index over the live edge set. Safe for concurrent use. scratch
// may be nil, the cheap case: Cases 1–3 on clean lists need none, and Case
// 4 or a dirty list borrows one from a package pool. A goroutine probing
// in a loop may pass its own to skip the pool.
func (ix *Index) Reach(s, t graph.Vertex, scratch *QueryScratch) bool {
	if s == t {
		return true
	}
	cs, ct := ix.coverID[s], ix.coverID[t]
	switch {
	case cs >= 0 && ct >= 0:
		// Case 1: a single index edge lookup; any weight bucket answers yes.
		return ix.hasArc(cs, ct)
	case cs >= 0 && !ix.ov.IsDirty(graph.Backward, t):
		return ix.case2(s, cs, ix.g.InNeighbors(t))
	case ct >= 0 && !ix.ov.IsDirty(graph.Forward, s):
		return ix.case3(t, ct, ix.g.OutNeighbors(s))
	}
	if scratch != nil {
		return ix.reachScratch(s, t, cs, ct, scratch)
	}
	scratch = queryScratch.Get().(*QueryScratch)
	ok := ix.reachScratch(s, t, cs, ct, scratch)
	queryScratch.Put(scratch)
	return ok
}

// reachScratch answers the probes that need scratch: Case 4, and a
// Case 2 or 3 whose neighbor list the overlay has dirtied (a Case 2 probe
// fails Reach's Case 3 test too, having ct < 0).
func (ix *Index) reachScratch(s, t graph.Vertex, cs, ct int32, scratch *QueryScratch) bool {
	switch {
	case cs >= 0:
		return ix.case2(s, cs, ix.ov.Neighbors(ix.g, t, graph.Backward, &scratch.nbrs))
	case ct >= 0:
		return ix.case3(t, ct, ix.ov.Neighbors(ix.g, s, graph.Forward, &scratch.nbrs))
	}
	// Case 4: out-neighbors of s and in-neighbors of t are all cover
	// vertices; s reaches t within k iff some pair (u,v) of them has
	// dist(u,v) ≤ k-2 (the ≤k-2 weight bucket), including u = v with
	// distance 0 (the path s→u→t). Stage inNei(t) as a cover-id bitmap,
	// then intersect each u's row against it.
	if need := ix.maskWords(); need > len(scratch.mask) {
		scratch.mask = make([]uint64, need)
	}
	in := scratch.in[:0]
	mask := scratch.mask
	for _, v := range ix.ov.Neighbors(ix.g, t, graph.Backward, &scratch.nbrs) {
		ci := int(ix.coverID[v])
		if !bitvec.TestBit(mask, ci) {
			bitvec.SetBit(mask, ci)
			in = append(in, int32(ci))
		}
	}
	scratch.in = in
	if len(in) == 0 {
		return false
	}
	hit := ix.case4(s, in, mask, &scratch.nbrs)
	for _, ci := range in {
		bitvec.ClearBit(mask, int(ci))
	}
	return hit
}

// case2 decides a Case 2 probe from t's live in-neighbors: every one is in
// the cover, and s reaches t within k iff it reaches one of them within
// k-1. A hub source answers each probe in one bitplane load.
func (ix *Index) case2(s graph.Vertex, cs int32, in []graph.Vertex) bool {
	if ix.rows == nil && ix.denseID[cs] >= 0 {
		row := ix.denseRow(ix.denseID[cs])
		for _, v := range in {
			if v == s {
				return true // direct edge (s,t): 1 hop
			}
			if row.Get(int(ix.coverID[v])) <= weightKm1 {
				return true
			}
		}
		return false
	}
	for _, v := range in {
		if v == s {
			return true
		}
		if w, ok := ix.arcWeight(cs, ix.coverID[v]); ok && w <= weightKm1 {
			return true
		}
	}
	return false
}

// case3 is the mirror image of case2 through the live out-neighbors of s.
func (ix *Index) case3(t graph.Vertex, ct int32, out []graph.Vertex) bool {
	for _, u := range out {
		if u == t {
			return true
		}
		if w, ok := ix.arcWeight(ix.coverID[u], ct); ok && w <= weightKm1 {
			return true
		}
	}
	return false
}

// case4 scans the out-neighbors of s for one whose index row intersects
// the staged in-neighbor bitmap at weight ≤ k-2. Hub rows use the
// word-parallel kernel (or O(1) lane probes when the neighbor list is much
// smaller than the row bitmap); CSR-only rows pick probe direction by
// relative size, with bitmap membership replacing the old sorted search.
// The rows of a mutable table are short and scanned against the bitmap.
func (ix *Index) case4(s graph.Vertex, in []int32, mask []uint64, buf *[]graph.Vertex) bool {
	twoHopOK := ix.k == Unbounded || ix.k >= 2
	for _, u := range ix.ov.Neighbors(ix.g, s, graph.Forward, buf) {
		cu := ix.coverID[u]
		if twoHopOK && bitvec.TestBit(mask, int(cu)) {
			return true // s→u→t in 2 hops
		}
		if ix.rows != nil {
			for _, a := range ix.rows[cu] {
				if a.W == weightLEKm2 && bitvec.TestBit(mask, int(a.To)) {
					return true
				}
			}
			continue
		}
		if slot := ix.denseID[cu]; slot >= 0 {
			row := ix.denseRow(slot)
			if len(in)*4 < ix.rowWords {
				for _, v := range in {
					if row.Get(int(v)) == weightLEKm2 {
						return true
					}
				}
			} else if row.AnyLEMasked(mask, weightLEKm2) {
				return true
			}
			continue
		}
		base := int(ix.outHead[cu])
		adj := ix.outAdj[base:ix.outHead[cu+1]]
		if len(in)*8 < len(adj) {
			for _, v := range in {
				if p := searchInt32(adj, v); p >= 0 && ix.weights.Get(base+p) == weightLEKm2 {
					return true
				}
			}
		} else {
			for p, v := range adj {
				if ix.weights.Get(base+p) == weightLEKm2 && bitvec.TestBit(mask, int(v)) {
					return true
				}
			}
		}
	}
	return false
}
