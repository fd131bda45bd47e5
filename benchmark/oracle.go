package main

import "sort"

// oracle answers k-hop questions by plain breadth-first search over the
// benchmark's own edge list. It shares no code with the product, so an
// agreeing answer is independent evidence. For the dynamic phases it also
// knows every batch the benchmark has applied, and can therefore answer as
// of any point in the run's history.
//
// A state is the number of mutation batches applied: state 0 is the
// generated graph. Batch b (1-based) adds edges that stay live for
// liveBatches batches, after which the stream removes them again, so an
// edge added by batch b is present in states b .. b+liveBatches-1.
//
// Not safe for concurrent use: checks run after the clock stops.
type oracle struct {
	n               int
	outHead, outAdj []int32
	inHead, inAdj   []int32

	liveBatches int
	addOut      map[int32][]addedEdge // tail → inserted heads
	addIn       map[int32][]addedEdge // head → inserted tails

	stamp []uint32
	dist  []int32
	cur   uint32
	queue []int32
}

// addedEdge is one benchmark-inserted edge endpoint and the batch that
// inserted it.
type addedEdge struct {
	v     int32
	batch int
}

func newOracle(el edgeList, liveBatches int) *oracle {
	o := &oracle{
		n:           el.n,
		liveBatches: liveBatches,
		addOut:      map[int32][]addedEdge{},
		addIn:       map[int32][]addedEdge{},
		stamp:       make([]uint32, el.n),
		dist:        make([]int32, el.n),
	}
	o.outHead, o.outAdj = csr(el.n, el.edges, func(e edge) (int32, int32) { return e.u, e.v })
	o.inHead, o.inAdj = csr(el.n, el.edges, func(e edge) (int32, int32) { return e.v, e.u })
	return o
}

// csr groups edges by key(e)'s first result; each row is sorted.
func csr(n int, edges []edge, key func(edge) (row, col int32)) (head, adj []int32) {
	head = make([]int32, n+1)
	for _, e := range edges {
		r, _ := key(e)
		head[r+1]++
	}
	for v := 0; v < n; v++ {
		head[v+1] += head[v]
	}
	adj = make([]int32, len(edges))
	next := append([]int32(nil), head[:n]...)
	for _, e := range edges {
		r, c := key(e)
		adj[next[r]] = c
		next[r]++
	}
	for v := 0; v < n; v++ {
		row := adj[head[v]:head[v+1]]
		if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		}
	}
	return head, adj
}

// hasBaseEdge reports whether (u, v) is an edge of the generated graph.
func (o *oracle) hasBaseEdge(u, v int32) bool {
	row := o.outAdj[o.outHead[u]:o.outHead[u+1]]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// recordBatch registers the edges added by batch number b (1-based).
func (o *oracle) recordBatch(b int, adds []edge) {
	for _, e := range adds {
		o.addOut[e.u] = append(o.addOut[e.u], addedEdge{e.v, b})
		o.addIn[e.v] = append(o.addIn[e.v], addedEdge{e.u, b})
	}
}

func (o *oracle) live(a addedEdge, state int) bool {
	return a.batch <= state && state < a.batch+o.liveBatches
}

// bfs runs a k-hop search from src in the given state and direction,
// leaving distances in o.dist for every vertex in o.queue. It stops early
// once stopAt is reached (pass -1 to explore the whole ball).
func (o *oracle) bfs(src int32, k, state int, forward bool, stopAt int32) bool {
	o.cur++
	head, adj, added := o.outHead, o.outAdj, o.addOut
	if !forward {
		head, adj, added = o.inHead, o.inAdj, o.addIn
	}
	o.queue = append(o.queue[:0], src)
	o.stamp[src], o.dist[src] = o.cur, 0
	visit := func(w, d int32) bool {
		if o.stamp[w] == o.cur {
			return false
		}
		o.stamp[w], o.dist[w] = o.cur, d
		o.queue = append(o.queue, w)
		return w == stopAt
	}
	for i := 0; i < len(o.queue); i++ {
		v := o.queue[i]
		d := o.dist[v]
		if int(d) == k {
			break
		}
		for _, w := range adj[head[v]:head[v+1]] {
			if visit(w, d+1) {
				return true
			}
		}
		if state > 0 {
			for _, a := range added[v] {
				if o.live(a, state) && visit(a.v, d+1) {
					return true
				}
			}
		}
	}
	return false
}

// reach reports whether t is within k hops of s in the given state.
func (o *oracle) reach(s, t int32, k, state int) bool {
	return s == t || o.bfs(s, k, state, true, t)
}

// ball returns the k-hop ball of v (excluding v) as vertex → distance.
func (o *oracle) ball(v int32, k, state int, forward bool) map[int32]int32 {
	o.bfs(v, k, state, forward, -1)
	out := make(map[int32]int32, len(o.queue)-1)
	for _, w := range o.queue[1:] {
		out[w] = o.dist[w]
	}
	return out
}

// tally counts what the run attempted and what went wrong. An operation
// that the product refused or failed counts as failed; so does a sampled
// answer that disagrees with the oracle.
type tally struct {
	attempted, failed, checked int
	firstFailure               string
}

func (t *tally) fail(n int, why string) {
	t.failed += n
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// sampleEvery is the stride of the deterministic sample of pair answers
// checked against the oracle (1/64 ≈ 1.6 % ≥ the 1 % the ledger promises).
const sampleEvery = 64

// checkPairs verifies every sampleEvery-th answer of one read operation.
// The product may have answered from any state in [loState, hiState] (a
// batch straddling a mutation answers each pair against the old or the new
// edge set), so an answer is right if the oracle agrees in any of them.
func (o *oracle) checkPairs(t *tally, pairs [][2]int32, got []bool, k, loState, hiState int, phase int) {
	t.attempted += len(pairs)
	if len(got) != len(pairs) {
		t.fail(len(pairs), "answer count differs from pair count")
		return
	}
	for i := phase % sampleEvery; i < len(pairs); i += sampleEvery {
		t.checked++
		ok := false
		for st := hiState; st >= loState && !ok; st-- {
			ok = o.reach(pairs[i][0], pairs[i][1], k, st) == got[i]
		}
		if !ok {
			t.fail(1, "reach answer disagrees with BFS oracle")
		}
	}
}

// ballMember is one enumerated vertex as the product reported it.
type ballMember struct {
	id       int32
	frontier bool // distance exactly k
}

// checkBall verifies one complete enumeration against the oracle's ball.
func (o *oracle) checkBall(t *tally, v int32, k, state int, forward bool, got []ballMember) {
	t.checked++
	want := o.ball(v, k, state, forward)
	if len(got) != len(want) {
		t.fail(1, "ball size disagrees with BFS oracle")
		return
	}
	for _, m := range got {
		d, ok := want[m.id]
		if !ok || (int(d) == k) != m.frontier {
			t.fail(1, "ball member or bucket disagrees with BFS oracle")
			return
		}
	}
}
