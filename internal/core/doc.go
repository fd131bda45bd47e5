// Package core implements the paper's contribution: the k-reach index for
// k-hop reachability queries (Definition 1, Algorithms 1–2), the
// (h,k)-reach variant built on an h-hop vertex cover (Definition 2,
// Algorithm 3), and the multi-resolution ladder of Section 4.4 for queries
// with a general k.
//
// # Layout
//
//   - kreach.go — Index construction (Algorithm 1): vertex cover, CSR
//     index graph of packed Arcs (target cover id << 2 | 2-bit weight
//     bucket), and the layouts finalize derives for enumeration (the
//     transposed CSR and the fringe CSRs). Every row, built, loaded or
//     mutable, is a sorted Arc slice; there is no second row layout.
//   - rows.go — BuildRows and its per-row body AppendRow, the
//     per-cover-vertex k-hop BFS of Algorithm 1, shared by the plain, (h,k)
//     and dynamic builds and by the dynamic index's row repair.
//   - query.go — Index queries (Algorithm 2): the four cover-membership
//     cases, each at most one adjacency-list intersection. QueryCase and
//     Classify expose the case split for the Table 8 experiment. The same
//     code answers for the dynamic index: NewMutable gives an Index a
//     mutable row table and a graph.Overlay in place of the CSR, and every
//     row read branches once on that table. A row is a slice of Arc, the
//     CSR's own arc type, sorted by target when sorted by arc.
//   - hk.go — HKIndex, the (h,k)-reach variant: smaller index over an
//     h-hop cover, queries expand h-hop neighborhoods (Algorithm 3).
//   - enum.go — k-hop neighborhood enumeration: BFSFallback, the
//     graph.BFS ball every index kind falls back on (labelling each level
//     as it is expanded), and the plain index's cover walk, one pass over a
//     per-direction view of the index rows and fringe CSR.
//   - multi.go — MultiIndex, the Section 4.4 ladder: one rung per k plus
//     an unbounded rung, exact on rungs and one-sided (YesWithin) between
//     power-of-two rungs.
//   - batch.go — ReachBatch worker pools: the shared batch path that
//     answers many pairs at once with per-worker scratch, used by the
//     public library, kreachd's /v1/batch and the bench harness.
//   - stage.go — the plain and mutable indexes' batch kernel: Cases 1–3
//     of up to 64 pairs become index-arc probes, resolved 32 at a time in
//     lockstep so their cache misses overlap, over the CSR or over the
//     group's mutable row slices; Case 4, and a Case 2–3 pair whose
//     neighbour list the overlay changed, fall back to scalar Reach.
//   - serial.go, hkserial.go — binary index serialization ("KRI1"/"KRH1"
//     magics), sealed and decoded by internal/codec. Both formats share
//     one cover-and-rows section (appendCoverRows/decodeCoverRows) after
//     their hop bounds, so a stream loads only if it would re-save byte
//     for byte; SniffIndexMagic dispatches auto-detecting loaders.
//   - epoch.go — process-unique generation numbers for every built or
//     loaded index, the cache-epoch mechanism behind kreachd's
//     hot-swappable datasets.
//   - weights.go — the packed ⌈lg(2h+1)⌉-bit weight array of the (h,k)
//     index. The plain index keeps each 2-bit bucket inside its packed
//     Arc, in the CSR and the mutable rows alike.
//
// # Concurrency
//
// All query methods are safe for concurrent use. A scratch passed to Reach
// must belong to one goroutine; a nil one is borrowed from this package's
// pools, and only by the cases that use it. Construction parallelizes across
// cover vertices (Section 4.1.3). Built and loaded indexes are immutable,
// which is what lets the serving layer swap them atomically under load; a
// mutable index (NewMutable) leaves the exclusion of queries during its
// changes to its owner, internal/dynamic's read-write lock.
package core
