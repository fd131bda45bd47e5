package core

import (
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"kreach/internal/graph"
)

// This file is Lines 4–8 of Algorithm 1, shared by every index that has
// them: one k-hop BFS per cover vertex, keeping the cover vertices reached.
// The plain, (h,k) and dynamic builds, and the dynamic index's row repair,
// differ only in how a distance becomes a stored weight.

// arcWeightBits is the width of the weight field of a packed arc; the widest
// weight any index stores is (h,k)-reach's 2h.
const arcWeightBits = 16

// rowChunk is how many consecutive cover ids a build worker claims at once:
// enough rows that the claim and the chunk's one allocation vanish against
// their BFSs, few enough that a hub-heavy chunk does not leave the other
// workers idle at the end.
const rowChunk = 128

// Rows is the index graph as BuildRows leaves it: a CSR over cover ids whose
// arcs are still packed keys.
type Rows struct {
	// Head holds one offset per cover id, then the arc count.
	Head []int32
	// chunks, concatenated, are the arcs Head indexes, each packed as
	// target cover id << arcWeightBits | weight and ascending within a row.
	chunks [][]uint64
}

// Arcs yields every arc's target cover id and weight, in the order Head
// indexes them.
func (r Rows) Arcs() iter.Seq2[int32, uint16] {
	return func(yield func(to int32, w uint16) bool) {
		for _, keys := range r.chunks {
			for _, key := range keys {
				if !yield(UnpackArc(key)) {
					return
				}
			}
		}
	}
}

// Packed returns the arcs as Arcs, in the order Head indexes them, each
// weight taken as a 2-bit bucket: the plain and dynamic indexes' rows.
func (r Rows) Packed() []Arc {
	arcs := make([]Arc, 0, r.Head[len(r.Head)-1])
	for to, w := range r.Arcs() {
		arcs = append(arcs, MakeArc(to, uint8(w)))
	}
	return arcs
}

// BuildRows derives the row of every vertex of list — the cover, ascending,
// with coverID its inverse — with AppendRow (k < 0: unbounded), on up to
// workers goroutines that claim chunks of cover ids from a shared cursor.
// The result does not depend on workers.
func BuildRows[W uint8 | uint16](g *graph.Graph, list []graph.Vertex, coverID []int32, k, workers int, weight func(dist int32) W) Rows {
	nc := len(list)
	rows := Rows{Head: make([]int32, nc+1), chunks: make([][]uint64, (nc+rowChunk-1)/rowChunk)}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(rows.chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b graph.BFS
			sizeHint := 0
			for {
				c := int(cursor.Add(1)) - 1
				if c >= len(rows.chunks) {
					return
				}
				keys := make([]uint64, 0, sizeHint)
				for ui := c * rowChunk; ui < min((c+1)*rowChunk, nc); ui++ {
					start := len(keys)
					keys = AppendRow(keys, &b, g, nil, list[ui], coverID, k, weight)
					rows.Head[ui+1] = int32(len(keys) - start)
				}
				rows.chunks[c] = keys
				sizeHint = len(keys) + len(keys)/8
			}
		}()
	}
	wg.Wait()
	for ui := 0; ui < nc; ui++ {
		rows.Head[ui+1] += rows.Head[ui]
	}
	return rows
}

// AppendRow appends the row of cover vertex u to keys: a k-hop forward BFS
// from u over g with ov applied (nil: g alone), and an arc to every other
// cover vertex reached, weighted by weight(distance) and packed as target
// cover id << arcWeightBits | weight. The target sits in the high bits, so
// sorting the keys as plain integers orders the row by target cover id, the
// CSR order. It is the static build's row and the dynamic index's repair
// alike.
func AppendRow[W uint8 | uint16](keys []uint64, b *graph.BFS, g *graph.Graph, ov *graph.Overlay, u graph.Vertex, coverID []int32, k int, weight func(dist int32) W) []uint64 {
	b.Run(g, ov, u, k, graph.Forward)
	start := len(keys)
	// Level 0 is u itself: (u,u) at distance 0 is implicit at query time.
	for d := 1; d <= b.Depth(); d++ {
		w := uint64(weight(int32(d)))
		for _, v := range b.Level(d) {
			if ci := coverID[v]; ci >= 0 {
				keys = append(keys, uint64(ci)<<arcWeightBits|w)
			}
		}
	}
	SortArcs(keys[start:])
	return keys
}

// insertionSortMax is the longest run of keys SortArcs sorts by insertion
// sort. A typical row holds a few dozen keys, which insertion sort orders in
// about half pdqsort's time; hub rows stay on slices.Sort.
const insertionSortMax = 64

// SortArcs sorts packed arc keys ascending.
func SortArcs(keys []uint64) {
	if len(keys) > insertionSortMax {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		key, j := keys[i], i
		for ; j > 0 && keys[j-1] > key; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = key
	}
}

// UnpackArc splits a key AppendRow packed into its target cover id and
// weight.
func UnpackArc(key uint64) (to int32, w uint16) {
	return int32(key >> arcWeightBits), uint16(key)
}
