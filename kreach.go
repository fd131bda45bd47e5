// Package kreach implements the k-reach index of Cheng, Shang, Cheng, Wang
// and Yu, "K-Reach: Who is in Your Small World" (PVLDB 5(11), 2012): an
// index for k-hop reachability queries on directed, unweighted graphs.
//
// A k-hop reachability query asks whether a target vertex t is reachable
// from a source vertex s by a directed path of at most k edges. Classic
// reachability is the special case k = ∞ (use Unbounded). The index is a
// small weighted graph over a vertex cover of the input: every vertex is
// within one hop of the cover, so pre-computing bucketed k-hop distances
// between cover vertices (2 bits per pair) suffices to answer any query
// with at most one adjacency-list intersection.
//
// # Quick start
//
//	b := kreach.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	g := b.Build()
//	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 2})
//	// ix.Reach(0, 2) == true, ix.Reach(0, 3) == false
//
// Four index variants are provided:
//
//   - Index (BuildIndex): the k-reach index for one fixed k, including
//     k = Unbounded for classic reachability (the paper's n-reach).
//   - HKIndex (BuildHKIndex): the (h,k)-reach variant of Section 5, built
//     on an h-hop vertex cover; smaller index, slower queries.
//   - MultiIndex (BuildMultiIndex): the Section 4.4 ladder of indexes for
//     queries with varying k, either exact (all rungs) or approximate
//     (power-of-two rungs, one-sided error between rungs).
//   - DynamicIndex (NewDynamicIndex): a mutable k-reach index accepting
//     online edge insertions and deletions with incremental maintenance,
//     plus compaction back into a fresh immutable snapshot.
//
// All four variants implement the Reacher interface — the recommended way
// to consume them: one context-aware query contract (ReachK, ReachBatch)
// plus a uniform IndexInfo surface (K, Epoch, CoverSize, SizeBytes, Stats),
// so serving layers and tools work with any variant, current or future,
// through a single code path. The per-variant Reach methods remain as thin
// wrappers for callers that know their concrete type.
//
// All public query methods are safe for concurrent use; construction
// parallelizes across cover vertices (Section 4.1.3 of the paper). A
// single probe takes its scratch inside the query engine, and only on the
// cases that stage anything (Case 4 of Algorithm 2, a vertex a mutation
// has touched, or an (h,k) expansion), so the indexes here hold no pools;
// batch workers own one scratch each.
package kreach

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"kreach/internal/codec"
	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
)

// Unbounded selects classic reachability (k = ∞).
const Unbounded = core.Unbounded

// CoverStrategy selects the vertex-cover heuristic used by BuildIndex.
type CoverStrategy int

const (
	// RandomEdgeCover is the paper's baseline 2-approximation (§4.1.1):
	// repeatedly pick a random uncovered edge and keep both endpoints.
	RandomEdgeCover CoverStrategy = iota
	// DegreePrioritizedCover biases edge selection toward high-degree
	// endpoints (§4.3), pulling "celebrity" vertices into the cover so that
	// their queries hit the cheap Case 1 path. Still 2-approximate.
	DegreePrioritizedCover
	// GreedyCover repeatedly takes the vertex covering the most uncovered
	// edges. Usually the smallest cover in practice; no constant-factor
	// guarantee. Provided for ablations.
	GreedyCover
)

func (s CoverStrategy) internal() cover.Strategy {
	switch s {
	case DegreePrioritizedCover:
		return cover.DegreePrioritized
	case GreedyCover:
		return cover.GreedyVertex
	default:
		return cover.RandomEdge
	}
}

// Graph is an immutable directed, unweighted graph. Build one with Builder,
// LoadEdgeList or LoadBinary.
type Graph struct {
	g *graph.Graph
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.g.HasEdge(graph.Vertex(u), graph.Vertex(v))
}

// OutNeighbors returns a copy of u's out-neighbor list.
func (g *Graph) OutNeighbors(u int) []int {
	g.check(u)
	return toInts(g.g.OutNeighbors(graph.Vertex(u)))
}

// InNeighbors returns a copy of u's in-neighbor list.
func (g *Graph) InNeighbors(u int) []int {
	g.check(u)
	return toInts(g.g.InNeighbors(graph.Vertex(u)))
}

// Degree returns |inNei(u) ∪ outNei(u)|, the degree notion of the paper.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return g.g.Degree(graph.Vertex(u))
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.g.NumVertices() {
		panic(fmt.Sprintf("kreach: vertex %d out of range [0,%d)", v, g.g.NumVertices()))
	}
}

func toInts(vs []graph.Vertex) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

// Internal returns the underlying representation; for use by this module's
// command-line tools and benchmarks only.
func (g *Graph) Internal() *graph.Graph { return g.g }

// WrapInternal adopts an internal graph; for use by this module's tools.
func WrapInternal(g *graph.Graph) *Graph { return &Graph{g: g} }

// Builder accumulates directed edges and produces a Graph. Duplicate edges
// are collapsed; self-loops are allowed but irrelevant to reachability.
type Builder struct {
	b *graph.Builder
}

// NewBuilder creates a builder for a graph with n vertices (ids 0..n-1).
func NewBuilder(n int) *Builder { return &Builder{b: graph.NewBuilder(n)} }

// AddEdge records the directed edge (u, v). It panics if an endpoint is out
// of range, mirroring slice indexing semantics.
func (b *Builder) AddEdge(u, v int) {
	b.b.AddEdge(graph.Vertex(u), graph.Vertex(v))
}

// Build produces the immutable graph. The builder remains usable.
func (b *Builder) Build() *Graph { return &Graph{g: b.b.Build()} }

// LoadEdgeList reads a whitespace edge list ("src dst" per line, '#'
// comments, optional "n m" header) from r.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// SaveEdgeList writes g as a text edge list with a header line.
func (g *Graph) SaveEdgeList(w io.Writer) error { return graph.WriteEdgeList(w, g.g) }

// LoadBinary reads the compact binary graph format written by SaveBinary.
func LoadBinary(r io.Reader) (*Graph, error) {
	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// SaveBinary writes g in a compact, checksummed binary form.
func (g *Graph) SaveBinary(w io.Writer) error { return graph.WriteBinary(w, g.g) }

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	// K is the hop bound; Unbounded builds the classic-reachability
	// (n-reach) variant. K = 0 is invalid.
	K int
	// Cover selects the vertex-cover heuristic (default RandomEdgeCover).
	Cover CoverStrategy
	// Seed drives randomized cover selection; fixed seeds give fully
	// deterministic indexes.
	Seed uint64
	// Parallelism bounds concurrent construction BFS workers
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
}

// Index answers k-hop reachability queries for the fixed k it was built
// with. Queries are safe for concurrent use.
type Index struct {
	ix *core.Index
	g  *Graph
}

// BuildIndex constructs the k-reach index of g (Algorithm 1 of the paper).
func BuildIndex(g *Graph, opts IndexOptions) (*Index, error) {
	ix, err := core.Build(g.g, core.Options{
		K:           opts.K,
		Strategy:    opts.Cover.internal(),
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix, g: g}, nil
}

// Pair is one (S, T) query of a batch. See the ReachBatch methods.
type Pair struct {
	S, T int
}

// checkPairs validates every pair against g and converts to core pairs.
func checkPairs(g *Graph, pairs []Pair) []core.Pair {
	out := make([]core.Pair, len(pairs))
	for i, p := range pairs {
		g.check(p.S)
		g.check(p.T)
		out[i] = core.Pair{S: graph.Vertex(p.S), T: graph.Vertex(p.T)}
	}
	return out
}

// Reach reports whether t is reachable from s within the index's k hops
// (Algorithm 2 of the paper). Safe for concurrent use. It is the
// concrete-type shorthand for ReachK with UseIndexK; new code that may hold
// any Reacher should prefer ReachK.
func (ix *Index) Reach(s, t int) bool {
	ix.g.check(s)
	ix.g.check(t)
	return ix.ix.Reach(graph.Vertex(s), graph.Vertex(t), nil)
}

// K returns the hop bound (Unbounded for classic reachability).
func (ix *Index) K() int { return ix.ix.K() }

// Epoch returns the index's process-unique generation number, assigned when
// it was built or loaded. Serving layers use it as a cache epoch: embedding
// the epoch in result-cache keys means swapping in a replacement index
// implicitly invalidates every answer cached against the old one. Epochs
// are never reused within a process and carry no meaning across processes.
func (ix *Index) Epoch() uint64 { return ix.ix.Generation() }

// CoverSize returns |V_I|, the size of the vertex cover.
func (ix *Index) CoverSize() int { return ix.ix.Cover().Len() }

// InCover reports whether vertex v belongs to the index's vertex cover.
func (ix *Index) InCover(v int) bool {
	ix.g.check(v)
	return ix.ix.InCover(graph.Vertex(v))
}

// IndexEdges returns |E_I|, the number of index edges.
func (ix *Index) IndexEdges() int { return ix.ix.NumIndexEdges() }

// SizeBytes estimates the serialized index size (excluding the graph).
func (ix *Index) SizeBytes() int { return ix.ix.SizeBytes() }

// Save serializes the index (without its graph).
func (ix *Index) Save(w io.Writer) error { return ix.ix.WriteBinary(w) }

// LoadIndex reads an index written by Save and attaches it to g, which
// must be the graph it was built from.
func LoadIndex(r io.Reader, g *Graph) (*Index, error) {
	ix, err := core.ReadBinaryIndex(r, g.g)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix, g: g}, nil
}

// Internal exposes the underlying index for this module's benchmarks.
func (ix *Index) Internal() *core.Index { return ix.ix }

// HKOptions configures BuildHKIndex. Definition 2 requires K > 2·H.
type HKOptions struct {
	H           int // hop-cover radius (≥ 1)
	K           int // hop bound (> 2H)
	Parallelism int
}

// HKIndex is the (h,k)-reach index of Section 5: built on an h-hop vertex
// cover, it is smaller than the plain index but expands query-time
// neighborhoods to h hops. Queries are safe for concurrent use.
type HKIndex struct {
	ix *core.HKIndex
	g  *Graph
}

// BuildHKIndex constructs the (h,k)-reach index of g.
func BuildHKIndex(g *Graph, opts HKOptions) (*HKIndex, error) {
	ix, err := core.BuildHK(g.g, core.HKOptions{
		H: opts.H, K: opts.K, Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &HKIndex{ix: ix, g: g}, nil
}

// Reach reports whether t is reachable from s within k hops (Algorithm 3).
func (ix *HKIndex) Reach(s, t int) bool {
	ix.g.check(s)
	ix.g.check(t)
	return ix.ix.Reach(graph.Vertex(s), graph.Vertex(t), nil)
}

// H returns the hop-cover radius.
func (ix *HKIndex) H() int { return ix.ix.H() }

// Epoch returns the index's process-unique generation number; see
// Index.Epoch.
func (ix *HKIndex) Epoch() uint64 { return ix.ix.Generation() }

// K returns the hop bound.
func (ix *HKIndex) K() int { return ix.ix.K() }

// CoverSize returns the h-hop vertex cover size.
func (ix *HKIndex) CoverSize() int { return ix.ix.Cover().Len() }

// SizeBytes estimates the serialized index size.
func (ix *HKIndex) SizeBytes() int { return ix.ix.SizeBytes() }

// Save serializes the index (without its graph).
func (ix *HKIndex) Save(w io.Writer) error { return ix.ix.WriteBinary(w) }

// LoadAutoIndex reads an index written by Index.Save or HKIndex.Save,
// detecting the variant by a 4-byte magic peek, and attaches it to g.
// Exactly one of the returned indexes is non-nil on success; a stream with
// neither magic errors without being parsed, and a stream too short to even
// hold a magic reports a truncated index file. Callers that do not need
// the concrete type should prefer LoadAutoReacher.
func LoadAutoIndex(r io.Reader, g *Graph) (*Index, *HKIndex, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, fmt.Errorf("kreach: truncated index file: %d byte(s), need 4 for the magic: %w",
				len(head), io.ErrUnexpectedEOF)
		}
		return nil, nil, fmt.Errorf("kreach: reading index magic: %w", err)
	}
	// The loaders size their read by the file's Stat when they can see it
	// (codec.ReadSealed), so the peek's buffer passes it through.
	var rest io.Reader = br
	if f, ok := r.(codec.Stater); ok {
		rest = struct {
			*bufio.Reader
			codec.Stater
		}{br, f}
	}
	switch core.SniffIndexMagic([4]byte(head)) {
	case "kreach":
		ix, err := LoadIndex(rest, g)
		return ix, nil, err
	case "hkreach":
		hk, err := LoadHKIndex(rest, g)
		return nil, hk, err
	}
	return nil, nil, fmt.Errorf("kreach: magic %q is neither a plain nor an (h,k) index", head)
}

// LoadAutoReacher reads an index written by Index.Save or HKIndex.Save —
// detecting the variant from its magic like LoadAutoIndex — and returns it
// behind the unified Reacher interface, so loaders need no per-variant
// plumbing.
func LoadAutoReacher(r io.Reader, g *Graph) (Reacher, error) {
	ix, hk, err := LoadAutoIndex(r, g)
	if err != nil {
		return nil, err
	}
	if ix != nil {
		return ix, nil
	}
	return hk, nil
}

// LoadHKIndex reads an index written by HKIndex.Save and attaches it to g,
// which must be the graph it was built from.
func LoadHKIndex(r io.Reader, g *Graph) (*HKIndex, error) {
	ix, err := core.ReadBinaryHKIndex(r, g.g)
	if err != nil {
		return nil, err
	}
	return &HKIndex{ix: ix, g: g}, nil
}

// Internal exposes the underlying index for this module's benchmarks.
func (ix *HKIndex) Internal() *core.HKIndex { return ix.ix }

// Verdict is a MultiIndex answer.
type Verdict = core.Verdict

// MultiIndex verdicts.
const (
	// No: certainly not reachable within k hops.
	No = core.No
	// Yes: certainly reachable within k hops.
	Yes = core.Yes
	// YesWithin: reachable within the reported rung above k, possibly not
	// within k itself (the power-of-two ladder's one-sided approximation).
	YesWithin = core.YesWithin
)

// MultiOptions configures BuildMultiIndex.
type MultiOptions struct {
	// Rungs lists the k values to index. Use ExactRungs or PowerOfTwoRungs,
	// or supply custom values. An Unbounded rung is always added.
	Rungs []int
	// Cover, Seed, Parallelism as in IndexOptions; one cover is shared by
	// all rungs.
	Cover       CoverStrategy
	Seed        uint64
	Parallelism int
}

// PowerOfTwoRungs returns 2, 4, 8, …, up to the first power of two ≥ maxK —
// the lg d ladder of Section 4.4.
func PowerOfTwoRungs(maxK int) []int { return core.PowerOfTwoKs(maxK) }

// ExactRungs returns 2, 3, …, maxK: exact answers for every k ≤ maxK.
func ExactRungs(maxK int) []int { return core.AllKs(maxK) }

// MultiIndex answers k-hop reachability for a general, per-query k.
type MultiIndex struct {
	m *core.MultiIndex
	g *Graph
}

// BuildMultiIndex constructs one k-reach index per rung plus an Unbounded
// rung, sharing a single vertex cover.
func BuildMultiIndex(g *Graph, opts MultiOptions) (*MultiIndex, error) {
	m, err := core.BuildMulti(g.g, opts.Rungs, core.Options{
		Strategy:    opts.Cover.internal(),
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &MultiIndex{m: m, g: g}, nil
}

// Reach answers whether t is reachable from s within k hops (k < 0 means
// classic reachability). The verdict is exact when k matches a rung or the
// bracketing rungs agree; otherwise YesWithin reports the rung k' ≤
// 2^⌈lg k⌉ within which reachability is certain. It is the concrete-type
// shorthand for ReachK; new code that may hold any Reacher should prefer
// ReachK (note ReachK treats k = 0 as UseIndexK, i.e. classic
// reachability, where Reach answers the literal 0-hop query).
func (ix *MultiIndex) Reach(s, t, k int) (Verdict, int) {
	ix.g.check(s)
	ix.g.check(t)
	res := ix.m.Reach(graph.Vertex(s), graph.Vertex(t), k, nil)
	return res.Verdict, res.EffectiveK
}

// BatchVerdict is one ReachBatch answer. EffectiveK is the hop bound the
// verdict is certain for: the resolved query bound for exact Yes/No
// answers, or — for YesWithin — the rung above the queried k within which
// reachability is guaranteed.
type BatchVerdict struct {
	Verdict    Verdict
	EffectiveK int
}

// Rungs returns the ladder's k values in ascending order.
func (ix *MultiIndex) Rungs() []int { return ix.m.Rungs() }

// Epoch returns the ladder's process-unique generation number (shared by
// all rungs); see Index.Epoch.
func (ix *MultiIndex) Epoch() uint64 { return ix.m.Generation() }

// SizeBytes sums the sizes of all rungs.
func (ix *MultiIndex) SizeBytes() int { return ix.m.SizeBytes() }
