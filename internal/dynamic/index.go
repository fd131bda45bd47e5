package dynamic

import (
	"cmp"
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
	// (re)builds and when a mutation batch re-derives or relaxes its
	// affected rows; 0 = GOMAXPROCS. Repair workers run inside the batch's
	// write section, so readers still see exactly one epoch per batch.
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

// Index is the mutable k-reach index: Algorithm 2 answered against a
// DeltaGraph overlay plus incrementally maintained cover-pair weight rows.
// The answering is core's: the rows live in a mutable core.Index over the
// overlay and the cover map, whose scalar and staged kernels run under the
// read lock.
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
	core      *core.Index    // the rows, per cover id sorted by target; answers queries
	arcCount  int            // live index edges across all rows

	epoch      atomic.Uint64 // re-issued inside every mutation's write section
	retired    atomic.Bool
	compacting atomic.Bool

	// Cumulative counters (guarded by rw; carried across compactions).
	batches, edgesAdded, edgesRemoved       uint64
	promotions, rowsRecomputed, rowsRelaxed uint64
	compactions                             uint64
	// bfsRuns is atomic: maintenance pre-scans run outside the write lock.
	bfsRuns atomic.Uint64

	// scratches holds one BFS state per repair worker, allocated on first
	// use; scratches[0] also serves the collection phases. Guarded by mutMu
	// and grown only under the write lock.
	scratches []*rowScratch
	affected  []int32   // re-derived row ids, reused across batches (mutMu)
	relax     relaxPlan // relaxed rows, reused across batches (mutMu)

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
	slab := make([]core.Arc, 0, ix.arcCount)
	for to, w := range rows.Arcs() {
		slab = append(slab, core.Arc{To: to, W: uint8(w)})
	}
	table := make([][]core.Arc, len(ix.coverList))
	for ui := range table {
		lo, hi := rows.Head[ui], rows.Head[ui+1]
		table[ui] = slab[lo:hi:hi]
	}
	ix.core = core.NewMutable(base, &ix.dg.ov, ix.k, ix.coverID, table)
	ix.epoch.Store(core.NextGeneration())
	return ix, nil
}

// bucketFor is the static index's weight-bucket rule at this index's k.
func (ix *Index) bucketFor(dist int32) uint8 { return core.WeightBucket(ix.k, dist) }

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

// Reach reports whether t is reachable from s within k hops of the live
// (overlay-applied) edge set, by core's Algorithm 2 over the maintained rows.
// Safe for concurrent use; a nil scratch is borrowed from core's pool only
// on the cases that stage anything.
func (ix *Index) Reach(s, t graph.Vertex, sc *core.QueryScratch) bool {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	return ix.core.Reach(s, t, sc)
}

// ReachBatch answers every pair with core's staged batch kernel on a worker
// pool (0 = GOMAXPROCS, 1 = sequential), positionally aligned with pairs,
// and returns the epoch they answer for. The read lock is held for the
// whole batch, so every pair is answered from the one edge set that epoch
// names; nothing under it takes the lock again, since a second RLock would
// deadlock behind a queued writer. If ctx is cancelled mid-batch the pool
// stops between sub-ranges and returns the partially filled slice together
// with ctx.Err().
func (ix *Index) ReachBatch(ctx context.Context, pairs []core.Pair, parallelism int) ([]bool, uint64, error) {
	ix.rw.RLock()
	defer ix.rw.RUnlock()
	out, err := ix.core.ReachBatch(ctx, pairs, parallelism)
	return out, ix.epoch.Load(), err
}

// MutationResult reports what one Mutate batch did.
type MutationResult struct {
	Added, Removed          int // applied edge insertions / deletions
	DupAdds, MissingRemoves int // adds of existing edges, removes of absent ones
	UnknownVertex           int // ops dropped for out-of-range endpoints
	Promoted                int // vertices promoted into the cover
	RowsRecomputed          int // cover rows re-derived by bounded BFS
	RowsRelaxed             int // other cover rows an insertion or promotion changed
	Epoch                   uint64
}

// Applied reports whether the batch changed the edge set.
func (r MutationResult) Applied() bool { return r.Added+r.Removed > 0 }

// Mutate applies a batch of edge insertions and deletions (removals first,
// then adds) and incrementally repairs the index:
//
//   - rows of cover vertices within k-1 hops backward of a removed edge's
//     source (in the pre-batch graph) are re-derived by bounded BFS, since
//     any weakened path routes through that source;
//   - an insertion between two uncovered endpoints promotes the
//     higher-degree endpoint into the cover, keeping the vertex-cover
//     invariant Algorithm 2's case analysis rests on; a promoted vertex's
//     own row is re-derived too;
//   - every other row is relaxed: an insertion (u,v) can only tighten
//     row c, to the bucket of d(c,u)+1+d(v,c′), and a promoted vertex p
//     only adds the arc c→p at the bucket of d(c,p), all distances taken
//     in the post-batch graph. Buckets are monotone in distance, so
//     merging these candidates into the row by minimum bucket is exact.
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

	// Phase C (post-batch graph): the removal balls and the promoted
	// vertices' own rows are re-derived; every other row an insertion or a
	// promotion reaches is relaxed.
	for _, c := range promoted {
		affected = append(affected, ix.coverID[c])
	}
	slices.Sort(affected)
	affected = slices.Compact(affected)
	ix.affected = affected
	ix.planRelax(applied, promoted, affected)

	// Phase D: re-derive and relax every affected row, once.
	res.RowsRecomputed = len(affected)
	res.RowsRelaxed = ix.repair(affected, &ix.relax)

	ix.batches++
	ix.edgesAdded += uint64(res.Added)
	ix.edgesRemoved += uint64(res.Removed)
	ix.promotions += uint64(res.Promoted)
	ix.rowsRecomputed += uint64(res.RowsRecomputed)
	ix.rowsRelaxed += uint64(res.RowsRelaxed)
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
	id := int32(len(ix.coverList))
	ix.coverID[c] = id
	ix.coverList = append(ix.coverList, c)
	ix.core.SetRow(id, nil)
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

// relaxPlan is the relaxation work of one batch, rebuilt by planRelax. A
// source is one candidate list: the cover vertices within k-1 hops forward
// of an inserted edge's head, or a promoted vertex alone. A reference puts
// a source's candidates in a row: row c, through source s, gains c′ at
// distance base + the candidate's hops.
type relaxPlan struct {
	cands []uint64   // every source's list, packed cover id<<32 | hops, level by level
	ends  []int      // ends[s]: end of source s's list in cands
	refs  []relaxRef // sorted by row
	rows  []int      // start of each row's run in refs, then len(refs)
}

// runs returns the number of rows p relaxes.
func (p *relaxPlan) runs() int { return max(len(p.rows)-1, 0) }

// relaxRef is one reference of a relaxPlan.
type relaxRef struct {
	row, src, base int32
}

// planRelax rebuilds ix.relax for a batch whose insertions applied and
// whose promotions are in, over the post-batch overlay. Each insertion
// (u,v) takes a backward (k-1)-bounded BFS from u, whose cover vertices c
// are the rows, at base d(c,u)+1, and a forward (k-1)-bounded BFS from v,
// whose cover vertices are its candidates; each promoted vertex p takes a
// backward k-bounded BFS, whose cover vertices c get the arc c→p at base
// d(c,p). Rows in rederive (sorted) are left out: they are re-derived.
// Caller holds the write lock.
func (ix *Index) planRelax(applied []graph.Edge, promoted []graph.Vertex, rederive []int32) {
	p := &ix.relax
	p.cands, p.ends, p.refs = p.cands[:0], p.ends[:0], p.refs[:0]
	b := &ix.scratches[0].bfs
	// addRows references source src from every cover row b visited at
	// level minLevel or beyond.
	addRows := func(src, minLevel, offset int) {
		for d := minLevel; d <= b.Depth(); d++ {
			for _, v := range b.Level(d) {
				id := ix.coverID[v]
				if id < 0 {
					continue
				}
				if _, skip := slices.BinarySearch(rederive, id); !skip {
					p.refs = append(p.refs, relaxRef{row: id, src: int32(src), base: int32(d + offset)})
				}
			}
		}
	}
	for _, e := range applied {
		b.Run(ix.dg.base, &ix.dg.ov, e.Dst, ix.k-1, graph.Forward)
		for d := 0; d <= b.Depth(); d++ {
			for _, v := range b.Level(d) {
				if id := ix.coverID[v]; id >= 0 {
					p.cands = append(p.cands, uint64(id)<<32|uint64(d))
				}
			}
		}
		p.ends = append(p.ends, len(p.cands))
		b.Run(ix.dg.base, &ix.dg.ov, e.Src, ix.k-1, graph.Backward)
		addRows(len(p.ends)-1, 0, 1)
	}
	for _, c := range promoted {
		p.cands = append(p.cands, uint64(ix.coverID[c])<<32)
		p.ends = append(p.ends, len(p.cands))
		b.Run(ix.dg.base, &ix.dg.ov, c, ix.k, graph.Backward)
		addRows(len(p.ends)-1, 1, 0)
	}
	ix.bfsRuns.Add(uint64(2*len(applied) + len(promoted)))
	slices.SortFunc(p.refs, func(a, b relaxRef) int { return cmp.Compare(a.row, b.row) })
	p.rows = p.rows[:0]
	for i, r := range p.refs {
		if i == 0 || r.row != p.refs[i-1].row {
			p.rows = append(p.rows, i)
		}
	}
	p.rows = append(p.rows, len(p.refs))
}

// repair re-derives the rows of ids (distinct cover ids) and relaxes the
// rows of p, on up to opts.workers() goroutines, one per
// 2·repairChunk rows at most. Workers claim repairChunk rows at a time from
// a shared cursor, each with its own scratch, and write only the rows they
// claimed; their arc-count deltas are summed once all are done. It returns
// how many relaxed rows changed. Caller holds the write lock.
func (ix *Index) repair(ids []int32, p *relaxPlan) (relaxed int) {
	ix.bfsRuns.Add(uint64(len(ids)))
	tasks := len(ids) + p.runs()
	// run does task i: re-derive ids[i], or relax the row of p's run
	// i-len(ids).
	run := func(i int, sc *rowScratch) (delta int, changed bool) {
		if i < len(ids) {
			return ix.recomputeRow(ids[i], sc), false
		}
		return ix.relaxRow(p, i-len(ids), sc)
	}
	workers := min(ix.opts.workers(), (tasks+2*repairChunk-1)/(2*repairChunk))
	if workers <= 1 {
		for i := range tasks {
			delta, changed := run(i, ix.scratches[0])
			ix.arcCount += delta
			if changed {
				relaxed++
			}
		}
		return relaxed
	}
	for len(ix.scratches) < workers {
		ix.scratches = append(ix.scratches, &rowScratch{})
	}
	deltas, counts := make([]int, workers), make([]int, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.scratches[w]
			for {
				lo := int(cursor.Add(repairChunk)) - repairChunk
				if lo >= tasks {
					break
				}
				for i := lo; i < min(lo+repairChunk, tasks); i++ {
					delta, changed := run(i, sc)
					deltas[w] += delta
					if changed {
						counts[w]++
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		ix.arcCount += deltas[w]
		relaxed += counts[w]
	}
	return relaxed
}

// rowScratch is one repair worker's state: the BFS engine and the packed
// arc keys of the row it is deriving or relaxing.
type rowScratch struct {
	bfs  graph.BFS
	keys []uint64
}

// recomputeRow re-derives one cover row over the overlay — the static
// build's row derivation, core.AppendRow — and returns the change in its
// arc count. It writes only row id, so repair workers can run it
// concurrently on distinct ids.
func (ix *Index) recomputeRow(id int32, sc *rowScratch) int {
	sc.keys = core.AppendRow(sc.keys[:0], &sc.bfs, ix.dg.base, &ix.dg.ov, ix.coverList[id], ix.coverID, ix.k, ix.bucketFor)
	old := ix.core.Row(id)
	row := old[:0]
	for _, key := range sc.keys {
		to, w := core.UnpackArc(key)
		row = append(row, core.Arc{To: to, W: uint8(w)})
	}
	ix.core.SetRow(id, row)
	return len(row) - len(old)
}

// relaxRow merges the candidates of p's run-th row into that row by
// minimum bucket, in place when no target is new, and returns the change in
// its arc count and whether the row changed. It writes only that row, so
// repair workers can run it concurrently on distinct rows.
func (ix *Index) relaxRow(p *relaxPlan, run int, sc *rowScratch) (delta int, changed bool) {
	refs := p.refs[p.rows[run]:p.rows[run+1]]
	id, keys := refs[0].row, sc.keys[:0]
	for _, r := range refs {
		lo := 0
		if r.src > 0 {
			lo = p.ends[r.src-1]
		}
		// A list is level by level, so the cut to d(c,u)+1+d(v,c′) ≤ k is
		// a prefix.
		for _, cand := range p.cands[lo:p.ends[r.src]] {
			d := r.base + int32(uint32(cand))
			if int(d) > ix.k {
				break
			}
			if to := int32(cand >> 32); to != id {
				keys = append(keys, uint64(to)<<8|uint64(ix.bucketFor(d)))
			}
		}
	}
	sc.keys = keys
	core.SortArcs(keys)

	// Tighten the targets the row has; gather the new ones, each with its
	// least bucket (the first of its keys), in the front of keys.
	row, fresh := ix.core.Row(id), keys[:0]
	i, prev := 0, int32(-1)
	for _, key := range keys {
		to, w := int32(key>>8), uint8(key)
		if to == prev {
			continue
		}
		prev = to
		for i < len(row) && row[i].To < to {
			i++
		}
		switch {
		case i == len(row) || row[i].To != to:
			fresh = append(fresh, key)
		case w < row[i].W:
			row[i].W = w
			changed = true
		}
	}
	if len(fresh) == 0 {
		return 0, changed
	}
	// Merge the new targets in from the back.
	i = len(row) - 1
	row = slices.Grow(row, len(fresh))[:len(row)+len(fresh)]
	for o, j := len(row)-1, len(fresh)-1; j >= 0; o-- {
		if to := int32(fresh[j] >> 8); i >= 0 && row[i].To > to {
			row[o] = row[i]
			i--
		} else {
			row[o] = core.Arc{To: to, W: uint8(fresh[j])}
			j--
		}
	}
	ix.core.SetRow(id, row)
	return len(fresh), true
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
	next.rowsRelaxed = prev.rowsRelaxed
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
	RowsRecomputed  uint64 // rows re-derived by bounded BFS
	RowsRelaxed     uint64 // other rows an insertion or promotion changed
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
		RowsRelaxed:     ix.rowsRelaxed,
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
		arcBytes    = int(unsafe.Sizeof(core.Arc{}))
		rowBytes    = int(unsafe.Sizeof([]core.Arc(nil)))
		wordBytes   = int(unsafe.Sizeof(uint64(0)))
	)
	size := idBytes*len(ix.coverID) + vertexBytes*len(ix.coverList)
	size += rowBytes*len(ix.coverList) + arcBytes*ix.arcCount
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
