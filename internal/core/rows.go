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
// The plain, (h,k) and dynamic builds differ only in how a distance becomes
// a stored weight.

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
				if !yield(int32(key>>arcWeightBits), uint16(key)) {
					return
				}
			}
		}
	}
}

// BuildRows runs a k-hop forward BFS (k < 0: unbounded) from every vertex of
// list — the cover, ascending, with coverID its inverse — on up to workers
// goroutines, and records an arc for every other cover vertex reached,
// weighted by weight(distance). Workers claim chunks of cover ids from a
// shared cursor. Cover ids ascend with vertex ids and the target sits in the
// high bits, so sorting a row's keys as plain integers puts it in CSR order.
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
			scratch := graph.NewBFSScratch(g.NumVertices())
			sizeHint := 0
			for {
				c := int(cursor.Add(1)) - 1
				if c >= len(rows.chunks) {
					return
				}
				keys := make([]uint64, 0, sizeHint)
				for ui := c * rowChunk; ui < min((c+1)*rowChunk, nc); ui++ {
					graph.KHopBFS(g, list[ui], k, graph.Forward, scratch)
					start := len(keys)
					// Visited leads with the source: (u,u) at distance 0 is
					// implicit at query time.
					for _, v := range scratch.Visited()[1:] {
						if ci := coverID[v]; ci >= 0 {
							keys = append(keys, uint64(ci)<<arcWeightBits|uint64(weight(scratch.Dist(v))))
						}
					}
					slices.Sort(keys[start:])
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
