package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"kreach/internal/cover"
	"kreach/internal/graph"
)

// This file implements the (h,k)-reach index of Section 5: the same design
// as k-reach but built over an h-hop vertex cover, trading query time for
// index size. Definition 2 requires h < k/2; edge weights now span the 2h+1
// values k-2h … k (bucketed at the low end), stored ⌈lg(2h+1)⌉ bits each.
//
// Correction over the paper's Algorithm 3 (see DESIGN.md §5): an h-hop
// vertex cover only covers paths of length ≥ h, so a short path (length
// < h) between two non-cover vertices can avoid the cover entirely. The
// query therefore also watches for the target while expanding the ≤h-hop
// neighborhoods it needs anyway; this keeps the algorithm exact at no
// asymptotic cost.

// HKOptions configures (h,k)-reach construction.
type HKOptions struct {
	// H is the hop-cover radius (h ≥ 1; h = 1 degenerates to plain k-reach
	// built on a matching-based vertex cover).
	H int
	// K is the hop bound; must satisfy K > 2H (Definition 2: h < k/2).
	K int
	// Parallelism bounds concurrent construction BFS traversals; 0 means
	// GOMAXPROCS.
	Parallelism int
}

func (o HKOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return Options{}.workers()
}

// ErrBadHK reports an invalid (h,k) combination.
var ErrBadHK = errors.New("core: (h,k)-reach requires h >= 1 and k > 2h")

// HKIndex is the (h,k)-reach index of Definition 2.
type HKIndex struct {
	g    *graph.Graph
	h, k int
	gen  uint64 // process-unique generation, see epoch.go

	coverSet *cover.Set
	coverID  []int32

	outHead []int32
	outAdj  []int32
	weights *packedArray // value w encodes distance clamp: dist = k-2h+w for w>0, dist ≤ k-2h for w=0
}

// BuildHK constructs the (h,k)-reach index: an (h+1)-approximate minimum
// h-hop vertex cover, then a k-hop BFS from each cover vertex.
func BuildHK(g *graph.Graph, opts HKOptions) (*HKIndex, error) {
	if opts.H < 1 || opts.K <= 2*opts.H {
		return nil, fmt.Errorf("%w (h=%d, k=%d)", ErrBadHK, opts.H, opts.K)
	}
	return buildHKWithCover(g, opts, cover.HHopCover(g, opts.H))
}

// BuildHKWithCover constructs the (h,k)-reach index over a caller-supplied
// h-hop vertex cover (validated).
func BuildHKWithCover(g *graph.Graph, opts HKOptions, s *cover.Set) (*HKIndex, error) {
	if opts.H < 1 || opts.K <= 2*opts.H {
		return nil, fmt.Errorf("%w (h=%d, k=%d)", ErrBadHK, opts.H, opts.K)
	}
	if cover.HasUncoveredHPath(g, s, opts.H) {
		return nil, errors.New("core: supplied set is not an h-hop vertex cover")
	}
	return buildHKWithCover(g, opts, s)
}

func buildHKWithCover(g *graph.Graph, opts HKOptions, s *cover.Set) (*HKIndex, error) {
	n := g.NumVertices()
	ix := &HKIndex{g: g, h: opts.H, k: opts.K, gen: nextGeneration(), coverSet: s, coverID: make([]int32, n)}
	for i := range ix.coverID {
		ix.coverID[i] = -1
	}
	for i, v := range s.List() {
		ix.coverID[v] = int32(i)
	}

	floor := int32(ix.k - 2*ix.h) // distances at or below this share bucket 0
	rows := BuildRows(g, s.List(), ix.coverID, ix.k, opts.workers(), func(dist int32) uint16 {
		return uint16(max(dist-floor, 0))
	})
	ix.outHead = rows.Head
	total := int(rows.Head[s.Len()])
	ix.outAdj = make([]int32, total)
	ix.weights = newPackedArray(total, bitsFor(uint(2*ix.h)))
	pos := 0
	for to, w := range rows.Arcs() {
		ix.outAdj[pos] = to
		ix.weights.set(pos, uint(w))
		pos++
	}
	return ix, nil
}

// H returns the hop-cover radius h.
func (ix *HKIndex) H() int { return ix.h }

// K returns the hop bound k.
func (ix *HKIndex) K() int { return ix.k }

// Cover returns the h-hop vertex cover underlying the index.
func (ix *HKIndex) Cover() *cover.Set { return ix.coverSet }

// NumIndexEdges returns |E_H|.
func (ix *HKIndex) NumIndexEdges() int { return len(ix.outAdj) }

// SizeBytes estimates the serialized index size (cover list, CSR, packed
// weights), mirroring Index.SizeBytes.
func (ix *HKIndex) SizeBytes() int {
	return 4*len(ix.coverSet.List()) + 4*len(ix.outHead) + 4*len(ix.outAdj) + ix.weights.sizeBytes()
}

func (ix *HKIndex) arcWeight(u, v int32) uint {
	base := ix.outHead[u]
	if p := searchInt32(ix.outAdj[base:ix.outHead[u+1]], v); p >= 0 {
		return ix.weights.get(int(base) + p)
	}
	return notFound
}

// HKQueryScratch carries the per-goroutine BFS state used to expand the
// ≤h-hop neighborhoods of the query endpoints. It sizes itself on first use,
// so one scratch serves any (h,k) index.
type HKQueryScratch struct {
	bfs     graph.BFS
	bwdKeys []uint64 // cover id<<32 | backward hop count, for sorting
	bwdIDs  []int32  // sorted cover ids seen by the backward expansion
	bwdDist []int32  // backward hop count per entry of bwdIDs
}

// NewHKQueryScratch returns scratch space for queries against any (h,k)
// index.
func NewHKQueryScratch() *HKQueryScratch { return &HKQueryScratch{} }

// hkQueryScratch lends an HKQueryScratch to a Reach called without one.
var hkQueryScratch = sync.Pool{New: func() any { return NewHKQueryScratch() }}

// Reach reports whether s →k t using Algorithm 3. Safe for concurrent use.
// scratch may be nil: every case but Case 1 expands an h-hop neighborhood
// and then borrows one from a package pool. A goroutine probing in a loop
// may pass its own to skip the pool.
func (ix *HKIndex) Reach(s, t graph.Vertex, scratch *HKQueryScratch) bool {
	if s == t {
		return true
	}
	cs, ct := ix.coverID[s], ix.coverID[t]
	if cs >= 0 && ct >= 0 {
		// Case 1.
		return ix.arcWeight(cs, ct) != notFound
	}
	if scratch == nil {
		scratch = hkQueryScratch.Get().(*HKQueryScratch)
		defer hkQueryScratch.Put(scratch)
	}
	b := &scratch.bfs
	maxBudget := 2 * ix.h // stored weight w means dist ≤ k-2h+w; check w ≤ 2h-i-j

	switch {
	case cs >= 0:
		// Case 2: expand inNei_j(t) for j = 1..h; accept if s itself appears
		// (a direct ≤h-hop path) or some cover vertex v at backward hop j
		// has dist(s,v) ≤ k-j.
		b.Run(ix.g, nil, t, ix.h, graph.Backward)
		for j := 1; j <= b.Depth(); j++ {
			for _, v := range b.Level(j) {
				if v == s {
					return true // s →j t with j ≤ h < k
				}
				if cv := ix.coverID[v]; cv >= 0 {
					if w := ix.arcWeight(cs, cv); w != notFound && int(w) <= maxBudget-j {
						return true
					}
				}
			}
		}
		return false

	case ct >= 0:
		// Case 3: mirror image via outNei_i(s).
		b.Run(ix.g, nil, s, ix.h, graph.Forward)
		for i := 1; i <= b.Depth(); i++ {
			for _, u := range b.Level(i) {
				if u == t {
					return true
				}
				if cu := ix.coverID[u]; cu >= 0 {
					if w := ix.arcWeight(cu, ct); w != notFound && int(w) <= maxBudget-i {
						return true
					}
				}
			}
		}
		return false

	default:
		// Case 4: expand both neighborhoods. Any direct hit answers true;
		// otherwise look for cover vertices u (forward hop i) and v
		// (backward hop j) with dist(u,v) ≤ k-i-j, including u = v
		// (dist 0, i+j ≤ 2h < k).
		b.Run(ix.g, nil, t, ix.h, graph.Backward)
		if b.Seen(s) {
			return true // direct path of length ≤ h
		}
		// Cover vertices behind t, sorted by cover id: packed id<<32 | hops so
		// the sort is over plain integers, then split for the merges below.
		// The backward levels are consumed here, freeing the BFS for the
		// forward expansion.
		keys := scratch.bwdKeys[:0]
		for j := 1; j <= b.Depth(); j++ {
			for _, v := range b.Level(j) {
				if cv := ix.coverID[v]; cv >= 0 {
					keys = append(keys, uint64(cv)<<32|uint64(j))
				}
			}
		}
		scratch.bwdKeys = keys
		if len(keys) == 0 {
			// No cover vertex within h hops behind t and no direct short
			// path: unreachable, and the forward expansion can be skipped.
			return false
		}
		slices.Sort(keys)
		ids := scratch.bwdIDs[:0]
		dists := scratch.bwdDist[:0]
		for _, key := range keys {
			ids = append(ids, int32(key>>32))
			dists = append(dists, int32(uint32(key)))
		}
		scratch.bwdIDs, scratch.bwdDist = ids, dists

		b.Run(ix.g, nil, s, ix.h, graph.Forward)
		for i := 1; i <= b.Depth(); i++ {
			for _, u := range b.Level(i) {
				cu := ix.coverID[u]
				if cu < 0 {
					continue
				}
				// u = v case: s →i u →j t with i+j ≤ 2h < k.
				if pos := searchInt32(ids, cu); pos >= 0 {
					return true
				}
				adj := ix.outAdj[ix.outHead[cu]:ix.outHead[cu+1]]
				base := int(ix.outHead[cu])
				if len(ids)*8 < len(adj) {
					// Binary-probe the long adjacency for each backward id.
					for bi, v := range ids {
						if p := searchInt32(adj, v); p >= 0 &&
							int(ix.weights.get(base+p)) <= maxBudget-i-int(dists[bi]) {
							return true
						}
					}
					continue
				}
				ai, bi := 0, 0
				for ai < len(adj) && bi < len(ids) {
					switch {
					case adj[ai] < ids[bi]:
						ai++
					case adj[ai] > ids[bi]:
						bi++
					default:
						j := int(dists[bi])
						if int(ix.weights.get(base+ai)) <= maxBudget-i-j {
							return true
						}
						ai++
						bi++
					}
				}
			}
		}
		return false
	}
}

// Classify reports the Algorithm 3 case of the query (s, t).
func (ix *HKIndex) Classify(s, t graph.Vertex) QueryCase {
	switch {
	case s == t:
		return CaseEqual
	case ix.coverID[s] >= 0 && ix.coverID[t] >= 0:
		return Case1
	case ix.coverID[s] >= 0:
		return Case2
	case ix.coverID[t] >= 0:
		return Case3
	default:
		return Case4
	}
}

func searchInt32(sorted []int32, v int32) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == v {
		return lo
	}
	return -1
}
