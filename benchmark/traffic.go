package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"kreach"
)

// This file turns a seed into the inputs of a run: query pairs, ball
// sources and the stream of edge changes. The product only ever sees the
// generated values.

// traffic draws the endpoints of read operations for one workload.
type traffic struct {
	rng *rand.Rand
	o   *oracle
	k   int
	// celebrities is the workload's hot set (highest degree first), nil
	// for uniform-plus-near traffic.
	celebrities []int32
	// An enumeration into a celebrity holds a large part of the graph: the
	// dense rows' best case in-process, but over HTTP every 4096-vertex
	// page of it costs a full re-enumeration, one such ball outlasts a
	// pass, and how many of them a pass draws would decide its result.
	// Workloads that enumerate over HTTP therefore draw the vertices they
	// enumerate into from the ordinary vertices (at most ordinaryInDegree
	// followers) only. nil: from every vertex.
	ordinary []int32
}

const (
	celebrityCount = 1024
	celebrityBias  = 0.9
	// ordinaryInDegree is the most followers a vertex may have and still
	// count as ordinary.
	ordinaryInDegree = 16
)

// newTraffic builds the endpoint source for a graph family. On the hub
// graph nine endpoints in ten are one of the top-1024 vertices by degree,
// and within that set popularity is log-uniform in rank, so a few pairs
// repeat often and most of the million hot pairs are seen once: a result
// cache meets hits, misses and evictions. On the lattice half the pairs
// are uniform (nearly all answer No on a 4-hop bound) and half are "near".
func newTraffic(o *oracle, family string, k int, ballsIntoCelebrities bool, seed uint64) *traffic {
	t := &traffic{rng: rand.New(rand.NewPCG(seed, 0x7eaff1c)), o: o, k: k}
	if family == familyHubs {
		t.celebrities = topDegree(o, celebrityCount)
	}
	if !ballsIntoCelebrities {
		for v := 0; v < o.n; v++ {
			if o.inHead[v+1]-o.inHead[v] <= ordinaryInDegree {
				t.ordinary = append(t.ordinary, int32(v))
			}
		}
	}
	return t
}

// topDegree returns the count highest-degree vertices (in + out), ties
// broken by id.
func topDegree(o *oracle, count int) []int32 {
	vs := make([]int32, o.n)
	for i := range vs {
		vs[i] = int32(i)
	}
	deg := func(v int32) int32 {
		return o.outHead[v+1] - o.outHead[v] + o.inHead[v+1] - o.inHead[v]
	}
	sort.Slice(vs, func(i, j int) bool {
		if di, dj := deg(vs[i]), deg(vs[j]); di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs[:min(count, len(vs))]
}

func (t *traffic) uniform() int32 { return int32(t.rng.IntN(t.o.n)) }

// endpoint draws one vertex under the workload's popularity model.
func (t *traffic) endpoint() int32 {
	if t.celebrities == nil || t.rng.Float64() >= celebrityBias {
		return t.uniform()
	}
	rank := int(math.Pow(float64(len(t.celebrities)), t.rng.Float64())) - 1
	return t.celebrities[rank]
}

// walk returns the end of a random walk of the given length from s along
// generated (state 0) out-edges; it stops early at a sink.
func (t *traffic) walk(s int32, steps int) int32 {
	for ; steps > 0; steps-- {
		row := t.o.outAdj[t.o.outHead[s]:t.o.outHead[s+1]]
		if len(row) == 0 {
			break
		}
		s = row[t.rng.IntN(len(row))]
	}
	return s
}

// pairs draws count query pairs. On the lattice every second pair's target
// is the end of a 1..k+1-step walk from its source, which puts roughly a
// third of all pairs within the hop bound.
func (t *traffic) pairs(count int) [][2]int32 {
	out := make([][2]int32, count)
	for i := range out {
		s := t.endpoint()
		if t.celebrities == nil && i%2 == 1 {
			out[i] = [2]int32{s, t.walk(s, 1+t.rng.IntN(t.k+1))}
		} else {
			out[i] = [2]int32{s, t.endpoint()}
		}
	}
	return out
}

// ballOp is one enumeration: the k-hop ball out of or into a vertex.
type ballOp struct {
	v       int32
	forward bool
}

// balls draws count enumerations, alternating direction.
func (t *traffic) balls(count int) []ballOp {
	out := make([]ballOp, count)
	for i := range out {
		out[i] = ballOp{v: t.endpoint(), forward: i%2 == 0}
		if !out[i].forward && t.ordinary != nil {
			out[i].v = t.ordinary[t.rng.IntN(len(t.ordinary))]
		}
	}
	return out
}

const (
	// batchAdds edges are added and as many removed by every mutation
	// batch: 64 changes amortise one journal flush.
	batchAdds = 32
	// liveBatches is how long an inserted edge lives, in batches. The
	// live window (liveBatches·batchAdds = 2048 edges) stays far below the
	// quarter of |E| at which the product compacts, so no compaction ever
	// runs inside a timed pass, and the graph's size is stationary.
	liveBatches = 64
)

// mutation is one batch of the stream: adds are new random edges, removes
// are the adds of the batch liveBatches earlier (none while the window is
// still filling).
type mutation struct {
	number      int // 1-based position in the stream
	add, remove []edge
	addJ, remJ  [][2]int // the same edges in the public API's form
	requestBody []byte   // the same edges as a POST …/edges body

	// The product's raw reply, kept by target.apply for target.settle.
	libReply kreach.MutationResult
	rawReply []byte
	err      error

	acknowledged uint64 // epoch the product acknowledged, 0 until settled
}

// mutationStream produces the run's edge changes in order. Every added
// edge is absent from the generated graph and from the live window, so a
// correct product applies each batch in full.
type mutationStream struct {
	rng    *rand.Rand
	o      *oracle
	avoid  map[int32]bool // vertices never used as endpoints
	live   map[edge]bool
	recent [][]edge // adds of the last liveBatches batches, oldest first
	count  int
	ahead  []*mutation // drawn by prepare, not yet handed out
}

// newMutationStream starts a stream whose endpoints are uniform over the
// ordinary vertices, those with at most ordinaryInDegree in-edges:
// ordinary users befriending each other. One edge at a celebrity costs the
// product up to hundreds of milliseconds, so a stream that met one now and
// then would time the draw, not the product; the traced run prices that
// case on its own. On the lattice every vertex is ordinary.
func newMutationStream(o *oracle, seed uint64) *mutationStream {
	m := &mutationStream{rng: rand.New(rand.NewPCG(seed, 0x3d17a7e)), o: o,
		avoid: map[int32]bool{}, live: map[edge]bool{}}
	for v := 0; v < o.n; v++ {
		if o.inHead[v+1]-o.inHead[v] > ordinaryInDegree {
			m.avoid[int32(v)] = true
		}
	}
	return m
}

// prepare draws batches ahead of need until n are waiting, so that a timed
// writer only has to send them. Batches left over are handed out first by
// later calls to next, in order.
func (m *mutationStream) prepare(n int) {
	for len(m.ahead) < n {
		m.ahead = append(m.ahead, m.draw())
	}
}

// next returns the following batch of the stream.
func (m *mutationStream) next() *mutation {
	if len(m.ahead) == 0 {
		return m.draw()
	}
	mu := m.ahead[0]
	m.ahead = m.ahead[1:]
	return mu
}

func (m *mutationStream) draw() *mutation {
	m.count++
	mu := &mutation{number: m.count}
	for len(mu.add) < batchAdds {
		e := edge{int32(m.rng.IntN(m.o.n)), int32(m.rng.IntN(m.o.n))}
		if e.u == e.v || m.avoid[e.u] || m.avoid[e.v] || m.live[e] || m.o.hasBaseEdge(e.u, e.v) {
			continue
		}
		m.live[e] = true
		mu.add = append(mu.add, e)
	}
	if len(m.recent) == liveBatches {
		mu.remove = m.recent[0]
		m.recent = m.recent[1:]
		for _, e := range mu.remove {
			delete(m.live, e)
		}
	}
	m.recent = append(m.recent, mu.add)
	mu.addJ, mu.remJ = toAPIPairs(mu.add), toAPIPairs(mu.remove)
	body := appendEdges([]byte(`{"add":`), mu.add)
	mu.requestBody = append(appendEdges(append(body, `,"remove":`...), mu.remove), '}')
	return mu
}

func toAPIPairs(es []edge) [][2]int {
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{int(e.u), int(e.v)}
	}
	return out
}

func appendEdges(b []byte, es []edge) []byte {
	pairs := make([][2]int32, len(es))
	for i, e := range es {
		pairs[i] = [2]int32{e.u, e.v}
	}
	return appendPairs(b, pairs)
}
