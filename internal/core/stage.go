package core

import (
	"math/bits"

	"kreach/internal/graph"
)

// This file is Index.ReachBatch's kernel. Scalar Reach walks one pair's
// chain of dependent cache misses — coverID, denseID, outHead, a binary
// search into outAdj, weights — before it starts the next pair, so on an
// index larger than the cache a core has one miss in flight at a time.
// The pairs of a batch do not depend on each other, so the staged kernel
// advances many of them one step per loop instead (group prefetching):
//
//  1. load the cover ids of both endpoints of every pair of a sub-range;
//  2. classify each pair: s = t answers yes, Case 1 queues one arc probe,
//     Cases 2–3 record the neighbour list that decides them, Case 4 is
//     deferred, and so is a Case 2–3 pair whose list a mutable index's
//     overlay has changed;
//  3. expand the Case 2–3 lists into arc probes, one neighbour of every
//     list per round (a direct edge answers on the spot);
//  4. resolve the probes batchGroup at a time: the dense slots and CSR
//     bounds of the whole group, then a fixed-trip binary search over all
//     its CSR rows in lockstep, then the weights of only the probes that
//     need a bucket (a mutable index searches each probe's row alone);
//  5. answer the deferred pairs with scalar Reach's scratch half.
//
// Go has no prefetch intrinsic. The overlap comes from each loop body
// issuing loads that do not depend on one another, which the CPU keeps in
// flight together.

// batchGroup is how many arc probes the kernel resolves in lockstep: enough
// independent misses per round to hide memory latency, few enough that a
// group's search state stays in L1.
const batchGroup = 32

// arcProbe asks whether index arc (row, col) exists with a weight bucket of
// at most max; a hit answers the sub-range's pair yes. Case 1 accepts any
// bucket (max = weightK), Cases 2–3 only ≤ k-1.
type arcProbe struct {
	row, col int32
	pair     int32
	max      uint8
}

// nbrList is a Case 2 or 3 pair waiting for expansion. Case 2 probes row
// coverID[s] at the cover id of every in-neighbour of t; Case 3 probes the
// row of every out-neighbour of s at column coverID[t].
type nbrList struct {
	nbrs     []graph.Vertex
	end      graph.Vertex // a neighbour equal to it is the direct edge (s,t)
	fixed    int32        // cover id of the endpoint in the cover
	pair     int32
	fixedRow bool // Case 2: fixed is the probe row, not its column
}

// stageScratch is the kernel's per-worker state. Everything is sized by
// the sub-range (cancelStride pairs) or the group, never by the batch.
type stageScratch struct {
	cs, ct   [cancelStride]int32
	lists    [cancelStride]nbrList
	deferred [cancelStride]int32
	probes   [batchGroup]arcProbe
	queued   int
}

// reachStaged answers at most cancelStride pairs; out must be all false.
func (ix *Index) reachStaged(pairs []Pair, out []bool, sc *QueryScratch) {
	st := &sc.stage
	cs, ct := st.cs[:len(pairs)], st.ct[:len(pairs)]
	for i, p := range pairs {
		cs[i], ct[i] = ix.coverID[p.S], ix.coverID[p.T]
	}

	lists, deferred := st.lists[:0], st.deferred[:0]
	for i, p := range pairs {
		switch {
		case p.S == p.T:
			out[i] = true
		case cs[i] >= 0 && ct[i] >= 0:
			if st.push(arcProbe{row: cs[i], col: ct[i], pair: int32(i), max: weightK}) {
				ix.flush(st, out)
			}
		case cs[i] >= 0 && !ix.ov.IsDirty(graph.Backward, p.T):
			lists = append(lists, nbrList{nbrs: ix.g.InNeighbors(p.T), end: p.S, fixed: cs[i], pair: int32(i), fixedRow: true})
		case ct[i] >= 0 && !ix.ov.IsDirty(graph.Forward, p.S):
			lists = append(lists, nbrList{nbrs: ix.g.OutNeighbors(p.S), end: p.T, fixed: ct[i], pair: int32(i)})
		default:
			// Case 4, or a Case 2 or 3 whose neighbour list a mutable
			// index's overlay has changed (a Case 2 pair fails the Case 3
			// test too, having ct < 0).
			deferred = append(deferred, int32(i))
		}
	}

	// Expand one neighbour of every list per round, so that the neighbour
	// and cover-id loads of different pairs overlap. A list leaves once it
	// runs out or its pair is answered, by a direct edge or by an earlier
	// group.
	for j := 0; len(lists) > 0; j++ {
		live := lists[:0]
		for _, l := range lists {
			if j == len(l.nbrs) || out[l.pair] {
				continue
			}
			v := l.nbrs[j]
			if v == l.end {
				out[l.pair] = true
				continue
			}
			pr := arcProbe{row: l.fixed, col: ix.coverID[v], pair: l.pair, max: weightKm1}
			if !l.fixedRow {
				pr.row, pr.col = pr.col, pr.row
			}
			if st.push(pr) {
				ix.flush(st, out)
			}
			live = append(live, l)
		}
		lists = live
	}
	ix.flush(st, out)

	for _, i := range deferred {
		out[i] = ix.reachScratch(pairs[i].S, pairs[i].T, cs[i], ct[i], sc)
	}
}

// push queues a probe and reports whether the queue now holds a full group.
func (st *stageScratch) push(pr arcProbe) bool {
	st.probes[st.queued] = pr
	st.queued++
	return st.queued == batchGroup
}

// flush resolves the queued probes and empties the queue.
func (ix *Index) flush(st *stageScratch, out []bool) {
	ix.resolveProbes(st.probes[:st.queued], out)
	st.queued = 0
}

// resolveProbes answers up to batchGroup probes, ORing hits into out. Each
// loop touches one structure for the whole group, so the group's misses on
// it overlap.
func (ix *Index) resolveProbes(group []arcProbe, out []bool) {
	if ix.rows != nil {
		for _, pr := range group {
			if w, ok := searchArcs(ix.rows[pr.row], pr.col); ok && w <= pr.max {
				out[pr.pair] = true
			}
		}
		return
	}
	var slot [batchGroup]int32
	for j := range group {
		slot[j] = ix.denseID[group[j].row]
	}

	// CSR-only rows, compacted: search base and remaining span, column,
	// accepted bucket and pair.
	var (
		base, span, col, pair [batchGroup]int32
		limit                 [batchGroup]uint8
	)
	n, widest := 0, int32(1)
	for j := range group {
		pr := &group[j]
		if s := slot[j]; s >= 0 {
			if ix.denseRow(s).Get(int(pr.col)) <= pr.max {
				out[pr.pair] = true
			}
			continue
		}
		lo, hi := ix.outHead[pr.row], ix.outHead[pr.row+1]
		if lo == hi {
			continue
		}
		base[n], span[n], col[n], pair[n], limit[n] = lo, hi-lo, pr.col, pr.pair, pr.max
		widest = max(widest, hi-lo)
		n++
	}

	// Lockstep search for the last arc ≤ col in every row: each trip halves
	// every span, so ⌈log2 widest⌉ trips leave every span at 1 (a span
	// already at 1 keeps re-reading its own slot). le is -1 when the middle
	// arc is ≤ col and 0 otherwise (cover ids are non-negative, so the
	// difference cannot overflow), which keeps the step branch-free.
	for trips := bits.Len32(uint32(widest - 1)); trips > 0; trips-- {
		for c := 0; c < n; c++ {
			half := span[c] >> 1
			le := (ix.outAdj[base[c]+half] - col[c] - 1) >> 31
			base[c] += half & le
			span[c] -= half
		}
	}

	for c := 0; c < n; c++ {
		if p := base[c]; ix.outAdj[p] == col[c] && (limit[c] == weightK || ix.weights.Get(int(p)) <= limit[c]) {
			out[pair[c]] = true
		}
	}
}
