// Package graph provides the directed-graph substrate used throughout the
// k-reach reproduction: a compact immutable CSR representation with both
// forward and reverse adjacency, a mutable builder, breadth-first search
// utilities (including the k-hop BFS that Algorithm 1 of the paper relies
// on), text and binary I/O, and structural statistics.
//
// Vertices are dense integers in [0, NumVertices()). The representation is
// deliberately close to the paper's cost model: adjacency lists are sorted,
// so edge-existence tests are O(log deg) exactly as assumed in the
// complexity analysis of Section 4.2.2.
//
// # Layout
//
//   - graph.go — Graph (immutable CSR, out- and in-adjacency) and Builder.
//   - bfs.go — BFS, the one bounded level-synchronous search engine
//     (visited bitmap, level-ordered visit list, optional Overlay of edge
//     deltas for the dynamic index); KHopReach, the online-search baseline
//     with its early exit; and BFSDistances, the reference oracle.
//   - io.go — text edge lists ("src dst" lines, optional "n m" header)
//     and the "KRG1" CRC-checked binary format; see docs/API.md for the
//     byte-level layout.
//   - stats.go — ComputeStats: degrees, sampled diameter and median
//     shortest path, the µ statistic of Table 2.
//
// Graphs are immutable after Build, so they are safe for concurrent
// queries and may be shared between many indexes (every index retains its
// graph for the query-time adjacency probes of Algorithm 2).
package graph
