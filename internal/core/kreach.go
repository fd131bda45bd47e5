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

	// Index graph in CSR over cover ids, each row's arcs sorted by target.
	outHead []int32
	outArc  []Arc

	// Transposed index CSR (finalize): in-rows over cover ids, each arc to
	// its source with the same weight bucket, so backward enumeration from a
	// cover target mirrors the forward accelerated path instead of falling
	// back to BFS. Query-time only: never serialized, rebuilt after every
	// load, and not part of SizeBytes.
	inHead []int32
	inArc  []Arc

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

// Arc is one index arc, packed into 4 bytes: its target cover id above its
// 2-bit weight bucket. The CSR of a built or loaded index and the rows of a
// mutable one both hold Arcs. A row sorted by Arc is sorted by target, and
// the weight arrives in the same load as the target.
type Arc uint32

// ArcTargets is how many cover ids an Arc's 30-bit target field can name.
// Cover ids are graph vertices renumbered, so an index over at most
// ArcTargets vertices fits.
const ArcTargets = 1 << (32 - arcBucketBits)

// CheckVertexCount rejects a graph with more vertices than an Arc can name
// as its target, whose cover ids would wrap; every index storing Arcs runs it.
func CheckVertexCount(n int) error {
	if n > ArcTargets {
		return fmt.Errorf("core: %d vertices exceed the %d cover ids an index arc can name", n, ArcTargets)
	}
	return nil
}

// arcBucketBits is the width of an Arc's weight field.
const arcBucketBits = 2

// MakeArc packs the arc to cover id to with weight bucket w.
func MakeArc(to int32, w uint8) Arc { return Arc(uint32(to)<<arcBucketBits | uint32(w)) }

// To returns the arc's target cover id.
func (a Arc) To() int32 { return int32(a >> arcBucketBits) }

// W returns the arc's weight bucket.
func (a Arc) W() uint8 { return uint8(a & (1<<arcBucketBits - 1)) }

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
	if err := checkBuild(g, opts); err != nil {
		return nil, err
	}
	s := cover.VertexCover(g, opts.Strategy, opts.Seed)
	return buildWithCover(g, opts, s)
}

// BuildWithCover constructs the index over a caller-supplied vertex cover.
// The cover is validated; supplying a precomputed cover lets experiments
// share one cover across many k values (as the Table 7 sweep does).
func BuildWithCover(g *graph.Graph, opts Options, s *cover.Set) (*Index, error) {
	if err := checkBuild(g, opts); err != nil {
		return nil, err
	}
	if !cover.IsVertexCover(g, s) {
		return nil, errors.New("core: supplied set is not a vertex cover")
	}
	return buildWithCover(g, opts, s)
}

// checkBuild validates the hop bound and the graph's size for a build.
func checkBuild(g *graph.Graph, opts Options) error {
	if opts.K == 0 || (opts.K < 0 && opts.K != Unbounded) {
		return fmt.Errorf("%w (got %d)", ErrBadK, opts.K)
	}
	return CheckVertexCount(g.NumVertices())
}

func buildWithCover(g *graph.Graph, opts Options, s *cover.Set) (*Index, error) {
	ix := &Index{g: g, k: opts.K, gen: nextGeneration(), coverSet: s, coverID: s.IDs()}

	rows := BuildRows(g, s.List(), ix.coverID, ix.k, opts.workers(), ix.bucketFor)
	ix.outHead, ix.outArc = rows.Head, rows.Packed()
	ix.finalize(opts.workers())
	return ix, nil
}

// finalize builds the query-time structures derived from the CSR: the
// transposed index CSR that gives backward enumeration its accelerated
// path, and the fringe adjacency in both directions. Each task reads the
// forward CSR and the graph and writes fields of its own, so they run on up
// to workers goroutines. Called at the end of every build and load.
func (ix *Index) finalize(workers int) {
	tasks := []func(){
		ix.buildTransposed,
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

// buildTransposed derives the in-row CSR from the forward CSR: inArc lists,
// for every cover vertex v, an arc to each cover source u with u →k v,
// ascending (the counting sort visits sources in order), with the forward
// arc's weight bucket. It is dist(u, v) either way — the transposition
// changes which endpoint indexes the row, not the weight.
func (ix *Index) buildTransposed() {
	nc := ix.coverSet.Len()
	ix.inHead = make([]int32, nc+1)
	for _, a := range ix.outArc {
		ix.inHead[a.To()+1]++
	}
	for v := 0; v < nc; v++ {
		ix.inHead[v+1] += ix.inHead[v]
	}
	ix.inArc = make([]Arc, len(ix.outArc))
	next := make([]int32, nc)
	copy(next, ix.inHead[:nc])
	for u := 0; u < nc; u++ {
		for _, a := range ix.outArc[ix.outHead[u]:ix.outHead[u+1]] {
			v := a.To()
			ix.inArc[next[v]] = MakeArc(int32(u), a.W())
			next[v]++
		}
	}
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
func (ix *Index) NumIndexEdges() int { return len(ix.outArc) }

// InCover reports whether v ∈ V_I, i.e. membership in the vertex cover.
func (ix *Index) InCover(v graph.Vertex) bool { return ix.coverID[v] >= 0 }

// SizeBytes estimates the on-disk size of the index: the cover id map, the
// CSR offsets and targets, and the weights packed 2 bits each, as KRI1's
// weight block stores them. This matches how Table 4 of the paper accounts
// index size (the input graph is not part of the index).
func (ix *Index) SizeBytes() int {
	size := 4 * len(ix.coverSet.List()) // cover membership as a sorted id list
	size += 4 * len(ix.outHead)
	size += 4 * len(ix.outArc)
	size += 8 * weightWords(len(ix.outArc))
	return size
}

// notFound marks an absent index edge in (h,k) arc lookups.
const notFound = uint(0xFF)

// row returns the arcs of cover id u: a CSR row, or a mutable table's row.
func (ix *Index) row(u int32) []Arc {
	if ix.rows != nil {
		return ix.rows[u]
	}
	return ix.outArc[ix.outHead[u]:ix.outHead[u+1]]
}

// arcWeight returns the weight bucket of the index edge (u,v) given by
// cover ids, and whether the edge exists, by a binary search of row u.
func (ix *Index) arcWeight(u, v int32) (uint8, bool) {
	return searchArcs(ix.row(u), v)
}

// searchArcs returns the weight bucket of the arc to v in a row, and
// whether there is one. An arc sorts below key = MakeArc(v, 0) exactly
// when its target is below v, and the first arc at or above key goes to v
// exactly when it exceeds key by a bucket alone. It inlines into arcWeight,
// and so does row; make lint fails if either stops.
func searchArcs(row []Arc, v int32) (uint8, bool) {
	key := MakeArc(v, 0)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo]-key < 1<<arcBucketBits {
		return uint8(row[lo] - key), true
	}
	return 0, false
}

// maskWords is the size of a Case-4 mask: a bit per cover id of the live
// cover, which a mutable index grows by promotion.
func (ix *Index) maskWords() int {
	if ix.rows != nil {
		return bitvec.RowWords(len(ix.rows))
	}
	return bitvec.RowWords(ix.coverSet.Len())
}
