package kreach

import (
	"context"
	"time"

	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/wal"
)

// This file is the public face of the durability layer: a DynamicIndex
// backed by a write-ahead log and compacted snapshots, so mutations survive
// process death. See kreach/internal/wal for the formats and the recovery
// argument.

// SyncPolicy controls when journaled mutation batches are forced to stable
// storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log before a mutation is acknowledged (the
	// default): an acknowledged batch survives a crash.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS writeback: lowest mutation
	// latency, crash durability bounded by the kernel's flush horizon.
	SyncNever
)

func (p SyncPolicy) internal() wal.SyncPolicy {
	if p == SyncNever {
		return wal.SyncNever
	}
	return wal.SyncAlways
}

// String returns "always" or "never".
func (p SyncPolicy) String() string { return p.internal().String() }

// DurableOptions configures OpenDurableDynamicIndex.
type DurableOptions struct {
	// Dir is the durability directory holding the write-ahead log and the
	// latest compacted snapshot; one directory per dataset. Created if
	// missing.
	Dir string
	// Sync is the fsync policy for journaled batches (default SyncAlways).
	Sync SyncPolicy
	// RetainEpochs keeps the newest N journaled records across a
	// compaction checkpoint instead of truncating the whole log, so
	// replication followers within that window stream records rather than
	// re-shipping full snapshots. 0 (the default) truncates everything.
	RetainEpochs int
}

// WAL is a handle on a dataset's durability store: its counters for stats
// surfaces, and Close for shutdown. The store itself is driven by the
// DynamicIndex it was opened with — every Mutate journals through it,
// every Compact checkpoints it — so WAL has no mutating methods.
type WAL struct {
	s *wal.Store
}

// WALStats is a point-in-time snapshot of a durability store's counters.
type WALStats struct {
	Dir             string // the durability directory
	Sync            string // fsync policy: "always" or "never"
	RetainEpochs    int    // checkpoint retention window (records kept)
	RecordsAppended uint64 // mutation batches made durable since open
	Syncs           uint64 // fsyncs issued for appends
	RecordsReplayed uint64 // records replayed by crash recovery at open
	Checkpoints     uint64 // compacted snapshots written since open
	Truncations     uint64 // torn-tail and failed-append repairs
	SnapshotEpoch   uint64 // epoch of the current snapshot (0: none yet)
	LastEpoch       uint64 // highest epoch made durable
	TailFloor       uint64 // feed boundary: records newer than this are in the log
	LogBytes        int64  // current write-ahead log size
	FeedRequests    uint64 // replication feed chunks served
	FeedSnapshots   uint64 // feed chunks that shipped a full snapshot
	FeedRecords     uint64 // log records served through the feed
}

// Stats returns the store's counters.
func (w *WAL) Stats() WALStats {
	st := w.s.Stats()
	return WALStats{
		Dir:             st.Dir,
		Sync:            st.Sync.String(),
		RetainEpochs:    st.RetainEpochs,
		RecordsAppended: st.RecordsAppended,
		Syncs:           st.Syncs,
		RecordsReplayed: st.RecordsReplayed,
		Checkpoints:     st.Checkpoints,
		Truncations:     st.Truncations,
		SnapshotEpoch:   st.SnapshotEpoch,
		LastEpoch:       st.LastEpoch,
		TailFloor:       st.TailFloor,
		LogBytes:        st.LogBytes,
		FeedRequests:    st.FeedRequests,
		FeedSnapshots:   st.FeedSnapshots,
		FeedRecords:     st.FeedRecords,
	}
}

// WALFeed is one replication feed chunk: optionally a full snapshot image,
// then raw journaled records, plus the epoch bookkeeping a follower needs
// to resume exactly. See (*WAL).FeedSince.
type WALFeed = wal.FeedChunk

// FeedSince captures one replication chunk for a follower whose last
// applied epoch is fromEpoch. If the log provably holds every record newer
// than fromEpoch (the cursor is within the retained window), the chunk
// tails raw records; otherwise — cold start, a cursor older than retention
// allows, or a cursor from a divergent history — it ships a full snapshot
// first. maxBytes > 0 caps the records region at a record boundary (at
// least one record is always served); the chunk's ServedThrough reports
// how far it is complete.
func (w *WAL) FeedSince(fromEpoch uint64, maxBytes int) (WALFeed, error) {
	return w.s.FeedSince(fromEpoch, maxBytes)
}

// WaitForEpoch blocks until the store's newest durable epoch exceeds
// after, the context ends, the timeout elapses (0: none), or the store
// closes; it reports whether progress happened. Feed handlers use it to
// long-poll instead of having followers busy-spin.
func (w *WAL) WaitForEpoch(ctx context.Context, after uint64, timeout time.Duration) bool {
	return w.s.WaitForEpoch(ctx, after, timeout)
}

// DecodeWALSnapshot decodes a KRS1 snapshot image — as shipped in a feed
// chunk's Snapshot field — into its graph and epoch.
func DecodeWALSnapshot(data []byte) (*Graph, uint64, error) {
	g, epoch, err := wal.DecodeSnapshot(data)
	if err != nil {
		return nil, 0, err
	}
	return &Graph{g: g}, epoch, nil
}

// AdoptDynamicSnapshot builds a fresh mutable index over a snapshot
// shipped by a primary's feed, restored to exactly the shipped epoch (a
// zero epoch means the primary had never checkpointed; the index keeps a
// fresh local generation, matching recovery's rule for a virgin store).
// With w non-nil, the snapshot also becomes the follower's entire durable
// state — its log is cleared, because any logged record belongs to a
// history the snapshot replaces — and the new index journals through it.
// The process generation counter is advanced past the epoch first, so
// locally issued generations never collide with adopted primary epochs.
//
// The caller owns publishing the returned index (and retiring the one it
// replaces) through its registry.
func AdoptDynamicSnapshot(g *Graph, epoch uint64, opts DynamicOptions, w *WAL) (*DynamicIndex, error) {
	core.AdvanceGeneration(epoch)
	ix, err := NewDynamicIndex(g, opts)
	if err != nil {
		return nil, err
	}
	if epoch > 0 {
		ix.d.RestoreEpoch(epoch)
	}
	if w != nil {
		if err := w.s.Reset(g.g, epoch); err != nil {
			return nil, err
		}
		ix.d.SetJournal(w.s)
	}
	return ix, nil
}

// Close releases the log file handle. Call it only after the last mutation
// against the associated index; a closed store fails subsequent appends.
func (w *WAL) Close() error { return w.s.Close() }

// OpenDurableDynamicIndex opens (or creates) the durability directory and
// returns a mutable index restored to exactly the last durable state: the
// latest compacted snapshot — or base for a fresh directory — plus a replay
// of every journaled mutation batch after it, with a torn log tail
// truncated at the last valid record. The returned graph is the base the
// recovered overlay sits on, and the returned WAL exposes the store's
// counters.
//
// The index is wired for durability from the first mutation: Mutate
// journals each batch (fsynced under DurableOptions.Sync) before applying
// it, and Compact writes a fresh snapshot then truncates the log. The
// recovered epoch equals the pre-crash epoch, and the process generation
// counter is advanced past it, so epoch-keyed caches stay exact across a
// restart.
func OpenDurableDynamicIndex(base *Graph, opts DynamicOptions, dur DurableOptions) (*DynamicIndex, *Graph, *WAL, error) {
	store, err := wal.Open(dur.Dir, wal.Options{Sync: dur.Sync.internal(), RetainEpochs: dur.RetainEpochs})
	if err != nil {
		return nil, nil, nil, err
	}
	d, g, _, err := store.Recover(base.g, dynamic.Options{
		K:            opts.K,
		Strategy:     opts.Cover.internal(),
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
		CompactRatio: opts.CompactRatio,
	})
	if err != nil {
		store.Close()
		return nil, nil, nil, err
	}
	return newDynamicIndex(d, g.NumVertices()), &Graph{g: g}, &WAL{s: store}, nil
}
