// Package dynamic is the mutable layer over the immutable CSR graph and
// its k-reach index: online edge insertions and deletions with incremental
// index maintenance, so reachability keeps answering correctly while the
// graph changes underneath.
//
// The paper builds its index once over a static graph, but its core
// structural insight — all reachability is routed through a small vertex
// cover — is exactly what makes edge updates local: an inserted or deleted
// edge (u, v) can only change the k-bounded cover-pair distances of cover
// vertices within k hops of u, so a mutation batch re-derives only those
// rows by bounded BFS instead of rebuilding the whole index.
//
// Three pieces:
//
//   - DeltaGraph: a per-vertex added/removed adjacency overlay on a base
//     *graph.Graph, serving the adjacency surface Algorithm 2 needs
//     (out/in neighbors, HasEdge, degrees) with deltas applied. The deltas
//     are a graph.Overlay, which the graph.BFS engine expands directly;
//     its dirty bitmaps let every vertex without a delta read its base CSR
//     slice.
//   - Index: a mutable k-reach index over the overlay. Queries run the
//     four cases of Algorithm 2 against live adjacency plus incrementally
//     maintained cover-pair weight rows. Mutations promote uncovered
//     endpoints into the cover when an insertion would otherwise break the
//     vertex-cover invariant, then recompute exactly the affected rows.
//   - Compaction: Index.Compact materializes the overlay into a fresh CSR
//     (graph.Rebuild), rebuilds the index off the serving path, and hands
//     the replacement to a publish callback (the server swaps it into its
//     RCU registry) while mutations — but never reads — are held.
//
// Concurrency model: queries take a read lock and run concurrently with
// each other; mutation batches serialize on a mutation mutex and take the
// write lock only for the apply + row-recompute step. Inside that step the
// affected rows — collected by one multi-source backward BFS per phase —
// are re-derived by core.AppendRow, the static build's own row derivation
// run over the overlay, on up to Options.Parallelism workers, each with
// its own graph.BFS and writing only the rows it claimed, so the lock is
// held for less time without readers ever seeing a half-repaired batch. The index
// epoch (a process-unique generation from internal/core) is re-issued
// inside every mutation's write section, so epoch-keyed result caches can
// never serve an answer older than the epoch they saw.
package dynamic
