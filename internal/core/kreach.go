package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"kreach/internal/bitvec"
	"kreach/internal/cover"
	"kreach/internal/graph"
)

// Unbounded selects classic reachability (k = ∞); the paper calls the
// resulting structure n-reach.
const Unbounded = -1

// Weight buckets of Definition 1. Only the bucket — not the exact distance —
// is stored, 2 bits per index edge.
const (
	weightLEKm2 = 0 // shortest distance ≤ k-2
	weightKm1   = 1 // shortest distance = k-1
	weightK     = 2 // shortest distance = k
)

// Options configures index construction.
type Options struct {
	// K is the hop bound the index answers queries for. K = Unbounded (or
	// any K < 0) builds the n-reach variant for classic reachability.
	// K must not be 0 (a 0-hop query is the identity test).
	K int
	// Strategy selects the vertex-cover heuristic; the default (zero value)
	// is cover.RandomEdge, the paper's Section 4.1.1 baseline. Use
	// cover.DegreePrioritized for the Section 4.3 variant.
	Strategy cover.Strategy
	// Seed drives the randomized cover selection.
	Seed uint64
	// Parallelism bounds the number of concurrent per-cover-vertex BFS
	// traversals during construction (Section 4.1.3 notes this
	// parallelizes). 0 means GOMAXPROCS; 1 means sequential.
	Parallelism int
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Index is the k-reach index of Definition 1: a weighted directed graph
// I = (V_I, E_I, ω_I) with V_I a vertex cover of G, an edge (u,v) for every
// cover pair with u →k v, and 2-bit bucketed weights. It retains a
// reference to the indexed graph, which queries consult for the adjacency
// of non-cover endpoints (Cases 2–4 of Algorithm 2). A mutable Index
// (NewMutable) holds the rows of a dynamic index instead of a CSR.
type Index struct {
	g   *graph.Graph
	k   int    // Unbounded for n-reach
	gen uint64 // process-unique generation, see epoch.go

	coverSet *cover.Set
	coverID  []int32 // graph vertex → dense cover id, -1 if not in cover

	// Index graph in CSR over cover ids, adjacency sorted by cover id.
	outHead []int32
	outAdj  []int32
	weights bitvec.Packed2 // 2-bit weight bucket per arc, CSR-aligned

	// Dense bitplane rows for hub cover vertices (finalize). A row long
	// enough that a bitmap over all cover ids costs no more than a small
	// multiple of its CSR footprint is additionally stored as a
	// bitvec.WeightRow, which turns arcWeight into one lane load and the
	// Case-4 intersection into a word-parallel kernel call. Query-time
	// acceleration only: never serialized, rebuilt after every load.
	rowWords int     // words per bitplane = RowWords(cover size)
	denseID  []int32 // cover id → dense slot, -1 if CSR-only
	denseB0  []uint64
	denseB1  []uint64

	// Transposed index CSR (finalize): in-rows over cover ids with the same
	// 2-bit weights, so backward enumeration from a cover target mirrors the
	// forward accelerated path instead of falling back to BFS. Derived like
	// the dense rows: never serialized, rebuilt after every load, and not
	// part of SizeBytes.
	inHead []int32
	inAdj  []int32
	inW    bitvec.Packed2
	// Dense bitplane rows over the transposed CSR, same threshold and
	// lifecycle as the forward ones.
	inDenseID []int32
	inDenseB0 []uint64
	inDenseB1 []uint64

	// Graph-vertex mirrors of the two adjacency arrays (finalize): the
	// enumeration row scans emit graph vertices, and resolving each cover
	// id through the cover list is a dependent random load per arc —
	// mirroring the resolved ids CSR-aligned turns that into a second
	// sequential stream. Query-time only, never serialized.
	outVtx []graph.Vertex
	inVtx  []graph.Vertex

	// Fringe adjacency (finalize): for every cover vertex, its non-cover
	// graph neighbors in each direction. The enumeration fringe sweeps
	// otherwise scan the full graph adjacency and reject the cover
	// majority entry-by-entry through a random coverID load; these CSRs
	// hold exactly the candidates that can be fringe. Query-time only,
	// never serialized.
	fringeOutHead []int32
	fringeOutAdj  []graph.Vertex
	fringeInHead  []int32
	fringeInAdj   []graph.Vertex

	// Mutable row table (NewMutable), nil on a built or loaded index: per
	// cover id, the row's arcs sorted by target, which a dynamic index
	// maintains in place. It stands in for the CSR and every layout derived
	// from it, which stay empty, and ov applies the dynamic index's edge
	// deltas to g. Each query path branches on it where it reads a row, a
	// branch static indexes never take.
	rows [][]Arc
	ov   *graph.Overlay
}

// Arc is one arc of a mutable row: a target cover id and its weight bucket.
type Arc struct {
	To int32
	W  uint8
}

// NewMutable returns an index that answers Reach and ReachBatch from state
// a dynamic index owns: the adjacency of g with ov applied, the cover map
// coverID (graph vertex → cover id, -1 outside the cover) and one row per
// cover id. It reads all of them in place, so the owner must exclude
// queries while it changes them and must keep coverID a vertex cover of
// the live edges. A mutable index has no CSR, so it cannot be saved,
// enumerated or sized; its queries need k ≥ 1.
func NewMutable(g *graph.Graph, ov *graph.Overlay, k int, coverID []int32, rows [][]Arc) *Index {
	return &Index{g: g, ov: ov, k: k, gen: nextGeneration(), coverID: coverID, rows: rows}
}

// Row returns row u of a mutable index. Its weights may be tightened in
// place, under the owner's exclusion of queries.
func (ix *Index) Row(u int32) []Arc { return ix.rows[u] }

// SetRow replaces row u of a mutable index; u equal to the number of rows
// appends one, the row of a newly promoted cover id.
func (ix *Index) SetRow(u int32, row []Arc) {
	if int(u) == len(ix.rows) {
		ix.rows = append(ix.rows, row)
		return
	}
	ix.rows[u] = row
}

// ErrBadK reports an invalid hop bound.
var ErrBadK = errors.New("core: k must be >= 1 or Unbounded")

// Build constructs the k-reach index of g per Algorithm 1: compute a vertex
// cover S, then run a k-hop BFS from every u ∈ S and record, for every
// cover vertex v reached, the edge (u,v) with its weight bucket.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	if opts.K == 0 || (opts.K < 0 && opts.K != Unbounded) {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, opts.K)
	}
	s := cover.VertexCover(g, opts.Strategy, opts.Seed)
	return buildWithCover(g, opts, s)
}

// BuildWithCover constructs the index over a caller-supplied vertex cover.
// The cover is validated; supplying a precomputed cover lets experiments
// share one cover across many k values (as the Table 7 sweep does).
func BuildWithCover(g *graph.Graph, opts Options, s *cover.Set) (*Index, error) {
	if opts.K == 0 || (opts.K < 0 && opts.K != Unbounded) {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, opts.K)
	}
	if !cover.IsVertexCover(g, s) {
		return nil, errors.New("core: supplied set is not a vertex cover")
	}
	return buildWithCover(g, opts, s)
}

func buildWithCover(g *graph.Graph, opts Options, s *cover.Set) (*Index, error) {
	n := g.NumVertices()
	ix := &Index{g: g, k: opts.K, gen: nextGeneration(), coverSet: s, coverID: make([]int32, n)}
	for i := range ix.coverID {
		ix.coverID[i] = -1
	}
	for i, v := range s.List() {
		ix.coverID[v] = int32(i)
	}

	rows := BuildRows(g, s.List(), ix.coverID, ix.k, opts.workers(), ix.bucketFor)
	ix.outHead = rows.Head
	total := int(rows.Head[s.Len()])
	ix.outAdj = make([]int32, total)
	ix.weights = bitvec.NewPacked2(total)
	pos := 0
	for to, w := range rows.Arcs() {
		ix.outAdj[pos] = to
		ix.weights.Set(pos, uint8(w))
		pos++
	}
	ix.finalize(opts.workers())
	return ix, nil
}

// denseRowMinLen is the CSR row length below which a dense bitplane row is
// never built: short rows are answered faster by binary search than any
// bitmap scan, whatever the cover size.
const denseRowMinLen = 32

// finalize builds the query-time structures derived from the CSR: the
// dense bitplane rows of every hub cover vertex, the transposed index CSR
// that gives backward enumeration its accelerated path, the graph-vertex
// mirrors and the fringe adjacency. A row
// qualifies for a dense copy when its CSR length is at least 1/8 of the
// cover size — at that density the two bitplanes (|S|/4 bytes) cost under
// half of the row's own CSR footprint, and the small-world hubs the
// paper's cover construction prefers clear the bar easily. Called at the
// end of every build and load.
//
// Everything here reads the forward CSR and writes fields of its own, except
// the in-side mirror and planes, which wait for the transpose; the layouts
// are built on up to workers goroutines.
func (ix *Index) finalize(workers int) {
	ix.rowWords = bitvec.RowWords(ix.coverSet.Len())
	tasks := []func(){
		func() {
			ix.buildTransposed()
			ix.inVtx = ix.coverVertices(ix.inAdj)
			ix.inDenseID, ix.inDenseB0, ix.inDenseB1 = ix.buildDenseRows(ix.inHead, ix.inAdj, ix.inW)
		},
		func() { ix.outVtx = ix.coverVertices(ix.outAdj) },
		func() { ix.denseID, ix.denseB0, ix.denseB1 = ix.buildDenseRows(ix.outHead, ix.outAdj, ix.weights) },
		func() { ix.fringeOutHead, ix.fringeOutAdj = ix.buildFringe(ix.g.OutNeighbors) },
		func() { ix.fringeInHead, ix.fringeInAdj = ix.buildFringe(ix.g.InNeighbors) },
	}
	queue := make(chan func(), len(tasks))
	for _, task := range tasks {
		queue <- task
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range queue {
				task()
			}
		}()
	}
	wg.Wait()
}

// coverVertices resolves an adjacency array of cover ids to graph vertices.
func (ix *Index) coverVertices(adj []int32) []graph.Vertex {
	list := ix.coverSet.List()
	vtx := make([]graph.Vertex, len(adj))
	for p, c := range adj {
		vtx[p] = list[c]
	}
	return vtx
}

// buildFringe filters one graph adjacency down to, per cover vertex, the
// neighbors outside the cover.
func (ix *Index) buildFringe(neighbors func(graph.Vertex) []graph.Vertex) ([]int32, []graph.Vertex) {
	list := ix.coverSet.List()
	nc := len(list)
	head := make([]int32, nc+1)
	for i, u := range list {
		n := int32(0)
		for _, x := range neighbors(u) {
			if ix.coverID[x] < 0 {
				n++
			}
		}
		head[i+1] = head[i] + n
	}
	adj := make([]graph.Vertex, head[nc])
	for i, u := range list {
		pos := head[i]
		for _, x := range neighbors(u) {
			if ix.coverID[x] < 0 {
				adj[pos] = x
				pos++
			}
		}
	}
	return head, adj
}

// buildDenseRows scans one CSR (forward or transposed) and materializes a
// bitplane WeightRow for every row past the dense threshold. Returns the
// cover-id → dense-slot map (-1 = CSR-only) and the two packed planes.
func (ix *Index) buildDenseRows(head, adj []int32, w bitvec.Packed2) (id []int32, b0, b1 []uint64) {
	nc := ix.coverSet.Len()
	id = make([]int32, nc)
	slots := 0
	for u := 0; u < nc; u++ {
		id[u] = -1
		if rowLen := int(head[u+1] - head[u]); rowLen >= denseRowMinLen && rowLen*16 >= nc {
			id[u] = int32(slots)
			slots++
		}
	}
	if slots == 0 {
		return id, nil, nil
	}
	b0 = make([]uint64, slots*ix.rowWords)
	b1 = make([]uint64, slots*ix.rowWords)
	for i := range b0 {
		b0[i] = ^uint64(0) // all lanes LaneAbsent
		b1[i] = ^uint64(0)
	}
	for u := 0; u < nc; u++ {
		slot := id[u]
		if slot < 0 {
			continue
		}
		row := weightRow(b0, b1, ix.rowWords, slot)
		base := int(head[u])
		for p, v := range adj[base:head[u+1]] {
			row.Set(int(v), w.Get(base+p))
		}
	}
	return id, b0, b1
}

// buildTransposed derives the in-row CSR from the forward CSR: inAdj lists,
// for every cover vertex v, the cover sources u with u →k v, ascending (the
// counting sort visits sources in order), with the arc's weight bucket
// copied alongside. It is dist(u, v) either way — the transposition changes
// which endpoint indexes the row, not the weight.
func (ix *Index) buildTransposed() {
	nc := ix.coverSet.Len()
	total := len(ix.outAdj)
	ix.inHead = make([]int32, nc+1)
	for _, v := range ix.outAdj {
		ix.inHead[v+1]++
	}
	for v := 0; v < nc; v++ {
		ix.inHead[v+1] += ix.inHead[v]
	}
	ix.inAdj = make([]int32, total)
	ix.inW = bitvec.NewPacked2(total)
	next := make([]int32, nc)
	copy(next, ix.inHead[:nc])
	for u := 0; u < nc; u++ {
		for p := ix.outHead[u]; p < ix.outHead[u+1]; p++ {
			v := ix.outAdj[p]
			pos := next[v]
			next[v]++
			ix.inAdj[pos] = int32(u)
			ix.inW.Set(int(pos), ix.weights.Get(int(p)))
		}
	}
}

// weightRow returns dense slot s of the bitplanes b0, b1, words words per
// row.
func weightRow(b0, b1 []uint64, words int, s int32) bitvec.WeightRow {
	off := int(s) * words
	return bitvec.WeightRow{B0: b0[off : off+words], B1: b1[off : off+words]}
}

// denseRow returns the bitplane view of forward dense slot s.
func (ix *Index) denseRow(s int32) bitvec.WeightRow {
	return weightRow(ix.denseB0, ix.denseB1, ix.rowWords, s)
}

// WeightBucket maps a BFS distance (1..k) to its 2-bit weight bucket under
// hop bound k. For the unbounded (n-reach) index every reachable pair lands
// in the ≤k-2 bucket, making all query-side weight comparisons trivially
// true. The dynamic index buckets the rows it maintains by the same rule.
func WeightBucket(k int, dist int32) uint8 {
	switch {
	case k == Unbounded || int(dist) <= k-2:
		return weightLEKm2
	case int(dist) == k-1:
		return weightKm1
	default:
		return weightK
	}
}

func (ix *Index) bucketFor(dist int32) uint8 { return WeightBucket(ix.k, dist) }

// K returns the hop bound the index was built for (Unbounded for n-reach).
func (ix *Index) K() int { return ix.k }

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Cover returns the vertex cover underlying the index.
func (ix *Index) Cover() *cover.Set { return ix.coverSet }

// NumIndexEdges returns |E_I|.
func (ix *Index) NumIndexEdges() int { return len(ix.outAdj) }

// InCover reports whether v ∈ V_I, i.e. membership in the vertex cover.
func (ix *Index) InCover(v graph.Vertex) bool { return ix.coverID[v] >= 0 }

// SizeBytes estimates the on-disk size of the index: the cover id map, the
// CSR offsets and adjacency, and the 2-bit packed weights. This matches how
// Table 4 of the paper accounts index size (the input graph is not part of
// the index).
func (ix *Index) SizeBytes() int {
	size := 4 * len(ix.coverSet.List()) // cover membership as a sorted id list
	size += 4 * len(ix.outHead)
	size += 4 * len(ix.outAdj)
	size += ix.weights.SizeBytes()
	return size
}

// notFound marks an absent index edge in (h,k) arc lookups.
const notFound = uint(0xFF)

// arcWeight returns the weight bucket of the index edge (u,v) given by
// cover ids, and whether the edge exists. Hub rows answer in one bitplane
// load; CSR-only rows binary-search the sorted adjacency, and so do the
// rows of a mutable table.
func (ix *Index) arcWeight(u, v int32) (uint8, bool) {
	if ix.rows != nil {
		return searchArcs(ix.rows[u], v)
	}
	if slot := ix.denseID[u]; slot >= 0 {
		w := ix.denseRow(slot).Get(int(v))
		return w, w != bitvec.LaneAbsent
	}
	base := ix.outHead[u]
	if p := searchInt32(ix.outAdj[base:ix.outHead[u+1]], v); p >= 0 {
		return ix.weights.Get(int(base) + p), true
	}
	return 0, false
}

// hasArc reports whether the index edge (u,v) exists without decoding its
// weight, which is all Case 1 asks.
func (ix *Index) hasArc(u, v int32) bool {
	if ix.rows != nil {
		_, ok := searchArcs(ix.rows[u], v)
		return ok
	}
	if slot := ix.denseID[u]; slot >= 0 {
		return ix.denseRow(slot).Get(int(v)) != bitvec.LaneAbsent
	}
	return searchInt32(ix.outAdj[ix.outHead[u]:ix.outHead[u+1]], v) >= 0
}

// searchArcs returns the weight bucket of the arc to v in a mutable row,
// and whether there is one.
func searchArcs(row []Arc, v int32) (uint8, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].To == v {
		return row[lo].W, true
	}
	return 0, false
}

// maskWords is the size of a Case-4 mask: a bit per cover id of the live
// cover, which a mutable index grows by promotion.
func (ix *Index) maskWords() int {
	if ix.rows != nil {
		return bitvec.RowWords(len(ix.rows))
	}
	return ix.rowWords
}
