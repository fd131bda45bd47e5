package dynamic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kreach/internal/core"
	"kreach/internal/cover"
	"kreach/internal/graph"
	"kreach/internal/obs"
)

// Package-global maintenance latency histograms, merged across dynamic
// indexes; the serving layer adopts them into its /metrics registry. Only
// live operations record — crash-recovery Replay is excluded so replaying
// a long journal does not skew the serving-time distributions.
var (
	// MutateLatency is the full Mutate span: journal append (when
	// attached), backward collection and row repair.
	MutateLatency = obs.NewHistogram()
	// CompactLatency is the full Compact span: materialize, index rebuild,
	// checkpoint and publish.
	CompactLatency = obs.NewHistogram()
)

// Weight buckets of Definition 1, mirrored from the static index: only the
// bucket — not the exact distance — is needed by Algorithm 2.
const (
	wLEKm2 = 0 // shortest live distance ≤ k-2
	wKm1   = 1 // shortest live distance = k-1
	wK     = 2 // shortest live distance = k
)

const notFound = uint8(0xFF)

// repairChunk is how many affected row ids a repair worker claims at a
// time; a batch fans out to one worker per 2·repairChunk rows at most, so
// small batches stay on the calling goroutine.
const repairChunk = 32

// DefaultCompactRatio is the overlay-to-base edge ratio at which
// ShouldCompact starts reporting true when Options.CompactRatio is 0.
const DefaultCompactRatio = 0.25

// ErrBadK reports an invalid hop bound: the mutable index needs a finite
// k ≥ 1, because the incremental maintenance locality argument — an edge
// change only affects cover rows within k hops — has no bound for the
// unbounded (n-reach) variant.
var ErrBadK = errors.New("dynamic: k must be a finite hop bound >= 1")

// ErrRetired reports a mutation against an index that has been replaced by
// a newer snapshot (a compaction or reload published a successor). The
// caller should re-resolve the current snapshot and retry there.
var ErrRetired = errors.New("dynamic: index retired by a newer snapshot")

// ErrCompacting reports a Compact call while another is in flight.
var ErrCompacting = errors.New("dynamic: compaction already in progress")

// Journal is the durability hook a write-ahead log store implements
// (kreach/internal/wal). When one is attached (SetJournal), Mutate appends
// each batch — tagged with the epoch reserved for it — before anything
// applies, and Compact checkpoints the materialized graph so the log can be
// truncated. An Append error aborts the mutation with the index unchanged:
// the acknowledged history is always a prefix of the durable one.
type Journal interface {
	Append(epoch uint64, add, remove []graph.Edge) error
	Checkpoint(g *graph.Graph, epoch uint64) error
}

// Options configures New.
type Options struct {
	// K is the hop bound; it must be finite and ≥ 1 (see ErrBadK).
	K int
	// Strategy selects the initial vertex-cover heuristic (the cover then
	// grows online as insertions demand promotions).
	Strategy cover.Strategy
	// Seed drives randomized cover selection.
	Seed uint64
	// Parallelism bounds concurrent BFS workers, both during full
	// (re)builds and when a mutation batch re-derives its affected rows;
	// 0 = GOMAXPROCS. Repair workers run inside the batch's write section,
	// so readers still see exactly one epoch per batch.
	Parallelism int
	// CompactRatio is the DeltaSize/base-edges ratio at which ShouldCompact
	// reports true (0 = DefaultCompactRatio).
	CompactRatio float64
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// arc is one index edge: a target cover id and its 2-bit weight bucket.
type arc struct {
	to int32
	w  uint8
}

// Index is the mutable k-reach index: Algorithm 2 answered against a
// DeltaGraph overlay plus incrementally maintained cover-pair weight rows.
//
// Concurrency: Reach/ReachBatch/Stats take the read lock; Mutate batches
// serialize on a mutation mutex and hold the write lock for the
// apply-and-recompute step; Compact blocks mutations (not reads) for the
// duration of the off-path rebuild.
type Index struct {
	// mutMu serializes writers: mutation batches, compaction and
	// retirement checks. Held across phases that must see a stable overlay
	// without excluding readers.
	mutMu sync.Mutex
	// rw excludes readers only while a mutation batch applies deltas and
	// rewrites affected rows.
	rw sync.RWMutex

	dg   *DeltaGraph
	k    int
	opts Options

	coverID   []int32        // graph vertex → dense cover id, -1 if not in cover
	coverList []graph.Vertex // cover id → graph vertex (append-only; grows on promotion)
	rows      [][]arc        // per cover id, sorted by arc.to
	arcCount  int            // live index edges across all rows

	epoch      atomic.Uint64 // re-issued inside every mutation's write section
	retired    atomic.Bool
	compacting atomic.Bool

	// Cumulative counters (guarded by rw; carried across compactions).
	batches, edgesAdded, edgesRemoved uint64
	promotions, rowsRecomputed        uint64
	compactions                       uint64
	// bfsRuns is atomic: maintenance pre-scans run outside the write lock.
	bfsRuns atomic.Uint64

	// scratches holds one BFS state per repair worker, allocated on first
	// use; scratches[0] also serves the collection phases. Guarded by mutMu
	// and grown only under the write lock.
	scratches []*rowScratch
	affected  []int32 // collected row ids, reused across batches (mutMu)

	journal Journal // durability hook, nil for in-memory indexes (mutMu)
}

// New builds a mutable k-reach index over base with an empty overlay.
func New(base *graph.Graph, opts Options) (*Index, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, opts.K)
	}
	if opts.CompactRatio <= 0 {
		opts.CompactRatio = DefaultCompactRatio
	}
	n := base.NumVertices()
	cov := cover.VertexCover(base, opts.Strategy, opts.Seed)
	ix := &Index{
		dg:        NewDeltaGraph(base),
		k:         opts.K,
		opts:      opts,
		coverID:   make([]int32, n),
		scratches: []*rowScratch{{}},
	}
	for i := range ix.coverID {
		ix.coverID[i] = -1
	}
	ix.coverList = append(ix.coverList, cov.List()...)
	for i, v := range ix.coverList {
		ix.coverID[v] = int32(i)
	}

	// Initial rows: Algorithm 1's build, shared with the static index. The
	// overlay is empty, so the plain CSR BFS applies. Rows are carved out of
	// one slab with their capacity clipped, so a row that later outgrows its
	// slot reallocates instead of running into its neighbor.
	rows := core.BuildRows(base, ix.coverList, ix.coverID, ix.k, opts.workers(), ix.bucketFor)
	ix.arcCount = int(rows.Head[len(ix.coverList)])
	slab := make([]arc, 0, ix.arcCount)
	for to, w := range rows.Arcs() {
		slab = append(slab, arc{to: to, w: uint8(w)})
	}
	ix.rows = make([][]arc, len(ix.coverList))
	for ui := range ix.rows {
		lo, hi := rows.Head[ui], rows.Head[ui+1]
		ix.rows[ui] = slab[lo:hi:hi]
	}
	ix.epoch.Store(core.NextGeneration())
	return ix, nil
}

func (ix *Index) bucketFor(dist int32) uint8 {
	switch {
	case int(dist) <= ix.k-2:
		return wLEKm2
	case int(dist) == ix.k-1:
		return wKm1
	default:
		return wK
	}
}

// K returns the hop bound.
func (ix *Index) K() int { return ix.k }

// Epoch returns the current process-unique generation; it changes on every
// applied mutation batch, so epoch-keyed caches self-invalidate.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// Retired reports whether a successor snapshot has replaced this index.
func (ix *Index) Retired() bool { return ix.retired.Load() }

// Retire marks the index as replaced: subsequent Mutate and Compact calls
// fail with ErrRetired. The serving registry retires a displaced dynamic
// snapshot on swap so mutations can never land on an unpublished index and
// silently vanish. Queries keep answering (against the frozen state).
func (ix *Index) Retire() { ix.retired.Store(true) }

// SetJournal attaches j as the index's durability hook; see Journal. WAL
// recovery attaches the store it just replayed from, before the index is
// published anywhere.
func (ix *Index) SetJournal(j Journal) {
	ix.mutMu.Lock()
	defer ix.mutMu.Unlock()
	ix.journal = j
}

// RestoreEpoch forces the index's epoch to e. WAL recovery uses it when a
// snapshot exists but no replayed record changed the edge set: the
// recovered index then reports exactly the pre-crash (snapshot) epoch
// instead of the fresh generation New issued.
func (ix *Index) RestoreEpoch(e uint64) { ix.epoch.Store(e) }

// NumVertices returns n.
func (ix *Index) NumVertices() int { return ix.dg.NumVertices() }

// arcWeight returns the weight bucket of index edge (u,v) in cover ids.
func arcWeight(row []arc, to int32) uint8 {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].to == to {
		return row[lo].w
	}
	return notFound
}

// QueryScratch holds reusable per-goroutine query buffers. out and in hold
// merged neighbor lists of dirty vertices only; a clean vertex's list is
// read straight from the base CSR and never copied into (or aliased by)
// these buffers.
type QueryScratch struct {
	out, in []graph.Vertex
	inIDs   []int32
}

// NewQueryScratch returns scratch space for Reach.
func NewQueryScratch() *QueryScratch { return &QueryScratch{} }

// Reach reports whether t is reachable from s within k hops of the live
// (overlay-applied) edge set. Safe for concurrent use; pass nil scratch to
// allocate internally.
func (ix *Index) Reach(s, t graph.Vertex, sc *QueryScratch) bool {
	if sc == nil {
		sc = NewQueryScratch()
	}
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	return ix.reachLocked(s, t, sc)
}

// reachLocked is Algorithm 2 over the overlay adjacency. Caller holds at
// least the read lock.
func (ix *Index) reachLocked(s, t graph.Vertex, sc *QueryScratch) bool {
	if s == t {
		return true
	}
	cs, ct := ix.coverID[s], ix.coverID[t]
	switch {
	case cs >= 0 && ct >= 0:
		// Case 1: one index edge lookup.
		return arcWeight(ix.rows[cs], ct) != notFound

	case cs >= 0:
		// Case 2: every live in-neighbor of non-cover t is in the cover;
		// s →k t iff s reaches one of them within k-1 (or (s,t) is an edge).
		for _, v := range ix.dg.inNeighbors(t, &sc.in) {
			if v == s {
				return true // direct edge (s,t), k ≥ 1 always
			}
			if w := arcWeight(ix.rows[cs], ix.coverID[v]); w != notFound && w <= wKm1 {
				return true
			}
		}
		return false

	case ct >= 0:
		// Case 3: mirror of Case 2 through live out-neighbors of s.
		for _, u := range ix.dg.outNeighbors(s, &sc.out) {
			if u == t {
				return true
			}
			cu := ix.coverID[u]
			if cu < 0 {
				continue // unreachable if the cover invariant holds
			}
			if w := arcWeight(ix.rows[cu], ct); w != notFound && w <= wKm1 {
				return true
			}
		}
		return false

	default:
		// Case 4: all out-neighbors of s and in-neighbors of t are cover
		// vertices; s →k t iff some pair (u,v) has dist(u,v) ≤ k-2,
		// including u = v with distance 0 (the 2-hop path s→u→t).
		in := ix.dg.inNeighbors(t, &sc.in)
		if len(in) == 0 {
			return false
		}
		sc.inIDs = sc.inIDs[:0]
		for _, v := range in {
			sc.inIDs = append(sc.inIDs, ix.coverID[v])
		}
		slices.Sort(sc.inIDs)
		twoHopOK := ix.k >= 2
		for _, u := range ix.dg.outNeighbors(s, &sc.out) {
			cu := ix.coverID[u]
			if cu < 0 {
				continue // unreachable if the cover invariant holds
			}
			if twoHopOK && containsInt32(sc.inIDs, cu) {
				return true // s→u→t in 2 hops
			}
			row := ix.rows[cu]
			i, j := 0, 0
			for i < len(row) && j < len(sc.inIDs) {
				switch {
				case row[i].to < sc.inIDs[j]:
					i++
				case row[i].to > sc.inIDs[j]:
					j++
				default:
					if row[i].w == wLEKm2 {
						return true
					}
					i++
					j++
				}
			}
		}
		return false
	}
}

func containsInt32(sorted []int32, v int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}

// ReachBatch answers every pair with a worker pool (0 = GOMAXPROCS,
// 1 = sequential), positionally aligned with pairs. Each worker owns its
// scratch; each query takes the read lock, so a mutation landing mid-batch
// is answered for by either the old or the new edge set per query. If ctx
// is cancelled mid-batch the pool stops between pairs and returns the
// partially filled slice together with ctx.Err().
func (ix *Index) ReachBatch(ctx context.Context, pairs []core.Pair, parallelism int) ([]bool, error) {
	out := make([]bool, len(pairs))
	err := core.BatchEval(ctx, len(pairs), parallelism, NewQueryScratch, func(lo, hi int, sc *QueryScratch) {
		for i := lo; i < hi; i++ {
			out[i] = ix.Reach(pairs[i].S, pairs[i].T, sc)
		}
	})
	return out, err
}

// MutationResult reports what one Mutate batch did.
type MutationResult struct {
	Added, Removed          int // applied edge insertions / deletions
	DupAdds, MissingRemoves int // adds of existing edges, removes of absent ones
	UnknownVertex           int // ops dropped for out-of-range endpoints
	Promoted                int // vertices promoted into the cover
	RowsRecomputed          int // cover rows re-derived by bounded BFS
	Epoch                   uint64
}

// Applied reports whether the batch changed the edge set.
func (r MutationResult) Applied() bool { return r.Added+r.Removed > 0 }

// Mutate applies a batch of edge insertions and deletions (removals first,
// then adds) and incrementally repairs the index:
//
//   - rows of cover vertices within k-1 hops backward of a removed edge's
//     source (in the pre-batch graph) are re-derived, since any weakened
//     path routes through that source;
//   - an insertion between two uncovered endpoints promotes the
//     higher-degree endpoint into the cover, keeping the vertex-cover
//     invariant Algorithm 2's case analysis rests on;
//   - rows of cover vertices within k-1 hops backward of an added edge's
//     source, and within k hops backward of any promoted vertex (in the
//     post-batch graph), are re-derived likewise.
//
// Batches serialize; queries are excluded only during the apply-and-repair
// write section, at the end of which a fresh epoch is issued.
//
// With a journal attached, the filtered batch is appended to it — under the
// epoch reserved for the batch — before anything applies; a journal error
// aborts the mutation with the index unchanged.
func (ix *Index) Mutate(add, remove []graph.Edge) (MutationResult, error) {
	start := time.Now()
	defer func() { MutateLatency.Observe(time.Since(start)) }()
	ix.mutMu.Lock()
	defer ix.mutMu.Unlock()
	return ix.mutateLocked(add, remove, 0)
}

// Replay applies one journaled mutation batch during crash recovery. It is
// Mutate with two differences: the batch adopts the recorded epoch instead
// of a fresh generation (same epoch ⇔ same durable state, so epoch-keyed
// caches stay exact across recovery), and the journal is not appended to —
// the record is already durable.
func (ix *Index) Replay(add, remove []graph.Edge, epoch uint64) (MutationResult, error) {
	ix.mutMu.Lock()
	defer ix.mutMu.Unlock()
	return ix.mutateLocked(add, remove, epoch)
}

// mutateLocked is the shared Mutate/Replay body; caller holds mutMu.
// replayEpoch is 0 for a live mutation (journal the batch, issue a fresh
// epoch) and the recorded epoch during replay (epochs are generations and
// never 0, so 0 is an unambiguous sentinel).
func (ix *Index) mutateLocked(add, remove []graph.Edge, replayEpoch uint64) (MutationResult, error) {
	var res MutationResult
	if ix.retired.Load() {
		return res, ErrRetired
	}
	n := ix.dg.NumVertices()
	inRange := func(e graph.Edge) bool {
		return e.Src >= 0 && int(e.Src) < n && e.Dst >= 0 && int(e.Dst) < n
	}
	adds := make([]graph.Edge, 0, len(add))
	for _, e := range add {
		if inRange(e) {
			adds = append(adds, e)
		} else {
			res.UnknownVertex++
		}
	}
	removes := make([]graph.Edge, 0, len(remove))
	for _, e := range remove {
		if inRange(e) {
			removes = append(removes, e)
		} else {
			res.UnknownVertex++
		}
	}

	// Reserve the batch's epoch and make it durable before anything
	// applies. A journal failure leaves the index untouched, so the
	// acknowledged history is always a prefix of the durable one. (The
	// reserved generation is wasted if the batch turns out to be a no-op;
	// generations are only unique, never dense.)
	reserved := replayEpoch
	if reserved == 0 && ix.journal != nil && len(adds)+len(removes) > 0 {
		reserved = core.NextGeneration()
		if err := ix.journal.Append(reserved, adds, removes); err != nil {
			return res, fmt.Errorf("dynamic: journal: %w", err)
		}
	}

	// Phase A (pre-batch graph, read-only — concurrent readers continue):
	// collect rows reachable backward from each removed edge's source. Any
	// path a removal can weaken passes through that source within k-1 hops
	// of its cover origin. One multi-source BFS visits exactly the union of
	// the per-edge balls.
	b := &ix.scratches[0].bfs
	b.Reset(n)
	for _, e := range removes {
		if ix.dg.HasEdge(e.Src, e.Dst) {
			b.Visit(e.Src)
		}
	}
	affected := ix.collectBackward(b, ix.k-1, ix.affected[:0])

	ix.rw.Lock()
	defer ix.rw.Unlock()

	// Phase B: apply removals then insertions, promoting cover vertices as
	// insertions demand.
	var promoted []graph.Vertex
	for _, e := range removes {
		if ix.dg.RemoveEdge(e.Src, e.Dst) {
			res.Removed++
		} else {
			res.MissingRemoves++
		}
	}
	applied := make([]graph.Edge, 0, len(adds))
	for _, e := range adds {
		if !ix.dg.AddEdge(e.Src, e.Dst) {
			res.DupAdds++
			continue
		}
		res.Added++
		applied = append(applied, e)
		if ix.coverID[e.Src] < 0 && ix.coverID[e.Dst] < 0 {
			c := e.Src
			if ix.dg.OutDegree(e.Dst)+ix.dg.InDegree(e.Dst) >
				ix.dg.OutDegree(e.Src)+ix.dg.InDegree(e.Src) {
				c = e.Dst
			}
			ix.promote(c)
			promoted = append(promoted, c)
			res.Promoted++
		}
	}

	// Phase C (post-batch graph): rows that an insertion can strengthen
	// route through the new edge's source, within k-1 hops; a freshly
	// promoted cover vertex additionally needs arcs from every cover vertex
	// that already reached it, within the full k hops. One BFS with the
	// promoted vertices seeded at level 0 and the sources at level 1,
	// bounded at k, visits exactly the union of both kinds of ball.
	b.Reset(n)
	for _, c := range promoted {
		b.Visit(c)
	}
	b.Expand(ix.dg.base, &ix.dg.ov, graph.Backward)
	for _, e := range applied {
		b.Visit(e.Src)
	}
	affected = ix.collectBackward(b, ix.k, affected)

	// Phase D: re-derive every affected row, once, by forward bounded BFS.
	slices.Sort(affected)
	affected = slices.Compact(affected)
	ix.affected = affected
	ix.repair(affected)
	res.RowsRecomputed = len(affected)

	ix.batches++
	ix.edgesAdded += uint64(res.Added)
	ix.edgesRemoved += uint64(res.Removed)
	ix.promotions += uint64(res.Promoted)
	ix.rowsRecomputed += uint64(res.RowsRecomputed)
	switch {
	case res.Applied():
		if reserved == 0 {
			reserved = core.NextGeneration()
		}
		res.Epoch = reserved
		ix.epoch.Store(res.Epoch)
	case replayEpoch != 0 && len(add) == 0 && len(remove) == 0:
		// An explicitly empty replicated record is an epoch marker: it
		// names the current edge set under a newer epoch. A primary
		// compaction does exactly this (same edges, fresh successor epoch),
		// and followers persist the successor as an empty record — adopting
		// it here keeps "same epoch ⇔ same durable state" exact across the
		// replication boundary. A journaled no-op batch (all duplicates)
		// arrives with edges attached, so it never takes this branch.
		res.Epoch = replayEpoch
		ix.epoch.Store(replayEpoch)
	default:
		// A no-op batch (all duplicates/missing/unknown) leaves the edge
		// set untouched: keep the epoch so cached answers stay live.
		res.Epoch = ix.epoch.Load()
	}
	return res, nil
}

// ApplyRecord applies one replicated mutation record from a primary's
// feed: Replay's epoch adoption plus local durability. With a journal
// attached, the record is appended to it first — under the primary's
// epoch — so the follower's own log replays to the identical state. The
// process generation counter is advanced past the record's epoch before
// anything else, keeping locally issued generations (compactions, sibling
// datasets) from colliding with adopted primary epochs.
func (ix *Index) ApplyRecord(add, remove []graph.Edge, epoch uint64) (MutationResult, error) {
	if epoch == 0 {
		return MutationResult{}, errors.New("dynamic: replicated record requires a nonzero epoch")
	}
	start := time.Now()
	defer func() { MutateLatency.Observe(time.Since(start)) }()
	ix.mutMu.Lock()
	defer ix.mutMu.Unlock()
	if ix.retired.Load() {
		// Checked before the journal write: a record must not become locally
		// durable through a retired index's store.
		return MutationResult{}, ErrRetired
	}
	core.AdvanceGeneration(epoch)
	if ix.journal != nil {
		if err := ix.journal.Append(epoch, add, remove); err != nil {
			return MutationResult{}, fmt.Errorf("dynamic: journal: %w", err)
		}
	}
	return ix.mutateLocked(add, remove, epoch)
}

// promote adds vertex c to the cover with a fresh dense id and an empty
// row (the caller schedules its recompute). Caller holds the write lock.
func (ix *Index) promote(c graph.Vertex) {
	ix.coverID[c] = int32(len(ix.coverList))
	ix.coverList = append(ix.coverList, c)
	ix.rows = append(ix.rows, nil)
}

// collectBackward expands the seeds in b into a maxHops-bounded backward
// BFS over the current overlay and appends the cover id of every visited
// vertex to ids. With no seeds it does nothing and counts no traversal.
func (ix *Index) collectBackward(b *graph.BFS, maxHops int, ids []int32) []int32 {
	if len(b.Visited()) == 0 {
		return ids
	}
	b.ExpandTo(ix.dg.base, &ix.dg.ov, graph.Backward, maxHops)
	ix.bfsRuns.Add(1)
	for _, v := range b.Visited() {
		if id := ix.coverID[v]; id >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// repair re-derives the rows of ids (distinct cover ids) on up to
// opts.workers() goroutines, one per 2·repairChunk ids at most. Workers claim
// repairChunk ids at a time from a shared cursor, each with its own scratch,
// and write only the rows they claimed; their arc-count deltas are summed
// once all are done. Caller holds the write lock.
func (ix *Index) repair(ids []int32) {
	ix.bfsRuns.Add(uint64(len(ids)))
	workers := min(ix.opts.workers(), (len(ids)+2*repairChunk-1)/(2*repairChunk))
	if workers <= 1 {
		for _, id := range ids {
			ix.arcCount += ix.recomputeRow(id, ix.scratches[0])
		}
		return
	}
	for len(ix.scratches) < workers {
		ix.scratches = append(ix.scratches, &rowScratch{})
	}
	deltas := make([]int, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, delta := ix.scratches[w], 0
			for {
				lo := int(cursor.Add(repairChunk)) - repairChunk
				if lo >= len(ids) {
					break
				}
				for _, id := range ids[lo:min(lo+repairChunk, len(ids))] {
					delta += ix.recomputeRow(id, sc)
				}
			}
			deltas[w] = delta
		}()
	}
	wg.Wait()
	for _, d := range deltas {
		ix.arcCount += d
	}
}

// rowScratch is one repair worker's state: the BFS engine and the packed
// arc keys of the row it is deriving.
type rowScratch struct {
	bfs  graph.BFS
	keys []uint64
}

// recomputeRow re-derives one cover row over the overlay — the static
// build's row derivation, core.AppendRow — and returns the change in its
// arc count. It writes only rows[id], so repair workers can run it
// concurrently on distinct ids.
func (ix *Index) recomputeRow(id int32, sc *rowScratch) int {
	sc.keys = core.AppendRow(sc.keys[:0], &sc.bfs, ix.dg.base, &ix.dg.ov, ix.coverList[id], ix.coverID, ix.k, ix.bucketFor)
	row := ix.rows[id][:0]
	for _, key := range sc.keys {
		to, w := core.UnpackArc(key)
		row = append(row, arc{to: to, w: uint8(w)})
	}
	delta := len(row) - len(ix.rows[id])
	ix.rows[id] = row
	return delta
}

// ShouldCompact reports whether the overlay has grown past the configured
// ratio of the base edge count.
func (ix *Index) ShouldCompact() bool {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	base := ix.dg.Base().NumEdges()
	if base < 1 {
		base = 1
	}
	return float64(ix.dg.DeltaSize())/float64(base) >= ix.opts.CompactRatio
}

// Compact materializes the overlay into a fresh CSR (graph.Rebuild),
// rebuilds a full index over it off the serving path, and calls publish
// with the replacement while mutations — but not reads — are blocked. If
// publish returns nil (or is nil), this index is retired and the successor
// returned; on publish error the successor is discarded and this index
// keeps serving and accepting mutations.
//
// Only one compaction runs at a time (ErrCompacting otherwise); compacting
// a retired index fails with ErrRetired.
func (ix *Index) Compact(publish func(next *Index, g *graph.Graph) error) (*Index, error) {
	if !ix.compacting.CompareAndSwap(false, true) {
		return nil, ErrCompacting
	}
	defer ix.compacting.Store(false)
	start := time.Now()
	defer func() { CompactLatency.Observe(time.Since(start)) }()
	ix.mutMu.Lock()
	defer ix.mutMu.Unlock()
	if ix.retired.Load() {
		return nil, ErrRetired
	}
	g := ix.dg.Materialize()
	next, err := New(g, ix.opts)
	if err != nil {
		return nil, err
	}
	next.inherit(ix)
	if ix.journal != nil {
		// Make the compacted image durable and truncate the log before the
		// successor is visible anywhere. On error the successor is
		// discarded and this index keeps serving — the log still holds
		// every batch, so recovery is unaffected. The snapshot carries the
		// successor's epoch: a crash right after this call recovers to the
		// same edge set under that (newer) epoch, which at worst invalidates
		// cached answers, never serves stale ones.
		if err := ix.journal.Checkpoint(g, next.Epoch()); err != nil {
			return nil, err
		}
		next.journal = ix.journal
	}
	if publish != nil {
		if err := publish(next, g); err != nil {
			return nil, err
		}
	}
	ix.Retire()
	return next, nil
}

// inherit carries the cumulative mutation counters across a compaction so
// /v1/stats reports the dataset's history, not just the newest snapshot's.
func (next *Index) inherit(prev *Index) {
	prev.rw.RLock()
	defer prev.rw.RUnlock()
	next.batches = prev.batches
	next.edgesAdded = prev.edgesAdded
	next.edgesRemoved = prev.edgesRemoved
	next.promotions = prev.promotions
	next.rowsRecomputed = prev.rowsRecomputed
	next.bfsRuns.Store(prev.bfsRuns.Load())
	next.compactions = prev.compactions + 1
}

// Stats is a point-in-time snapshot of the index and its mutation history.
type Stats struct {
	Epoch     uint64
	K         int
	CoverSize int
	IndexArcs int

	BaseEdges    int // edges in the immutable base CSR
	LiveEdges    int // edges with the overlay applied
	DeltaAdded   int // overlay insertions not yet compacted
	DeltaRemoved int // overlay deletions not yet compacted

	MutationBatches uint64
	EdgesAdded      uint64 // cumulative, across compactions
	EdgesRemoved    uint64
	Promotions      uint64
	RowsRecomputed  uint64
	MaintenanceBFS  uint64 // bounded BFS traversals spent on maintenance
	Compactions     uint64
}

// Stats returns a consistent snapshot.
func (ix *Index) Stats() Stats {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	return Stats{
		Epoch:           ix.epoch.Load(),
		K:               ix.k,
		CoverSize:       len(ix.coverList),
		IndexArcs:       ix.arcCount,
		BaseEdges:       ix.dg.Base().NumEdges(),
		LiveEdges:       ix.dg.NumEdges(),
		DeltaAdded:      ix.dg.Added(),
		DeltaRemoved:    ix.dg.Removed(),
		MutationBatches: ix.batches,
		EdgesAdded:      ix.edgesAdded,
		EdgesRemoved:    ix.edgesRemoved,
		Promotions:      ix.promotions,
		RowsRecomputed:  ix.rowsRecomputed,
		MaintenanceBFS:  ix.bfsRuns.Load(),
		Compactions:     ix.compactions,
	}
}

// SizeBytes estimates the resident index size: cover id map, cover list,
// one slice header per row plus its live arcs, the overlay's delta lists,
// and one vertex bitmap per overlay side and per repair worker's BFS.
func (ix *Index) SizeBytes() int {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	const (
		idBytes     = int(unsafe.Sizeof(int32(0)))
		vertexBytes = int(unsafe.Sizeof(graph.Vertex(0)))
		arcBytes    = int(unsafe.Sizeof(arc{}))
		rowBytes    = int(unsafe.Sizeof([]arc(nil)))
		wordBytes   = int(unsafe.Sizeof(uint64(0)))
	)
	size := idBytes*len(ix.coverID) + vertexBytes*len(ix.coverList)
	size += rowBytes*len(ix.rows) + arcBytes*ix.arcCount
	size += 2 * vertexBytes * ix.dg.DeltaSize() // an out- and an in-entry per overlay edge
	size += (2 + len(ix.scratches)) * wordBytes * len(ix.dg.ov.Dirty[outSide])
	return size
}

// CheckInvariants validates the structural invariants tests rely on: the
// cover covers every live edge, and cover bookkeeping is consistent. It is
// O(n + m) and intended for tests, not the serving path.
func (ix *Index) CheckInvariants() error {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	for id, v := range ix.coverList {
		if ix.coverID[v] != int32(id) {
			return fmt.Errorf("dynamic: cover list/id mismatch at id %d vertex %d", id, v)
		}
	}
	n := ix.dg.NumVertices()
	var buf []graph.Vertex
	for u := 0; u < n; u++ {
		src := graph.Vertex(u)
		buf = ix.dg.AppendOutNeighbors(src, buf[:0])
		for _, v := range buf {
			if ix.coverID[src] < 0 && ix.coverID[v] < 0 {
				return fmt.Errorf("dynamic: live edge (%d,%d) has no cover endpoint", src, v)
			}
		}
	}
	return nil
}
