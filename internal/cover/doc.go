// Package cover implements the vertex-cover algorithms the k-reach index is
// built on (Sections 4.1.1, 4.3 and 5.1.1 of the paper):
//
//   - the classic 2-approximate minimum vertex cover via random edge
//     selection (maximal matching) — cover.go, Strategy RandomEdge;
//   - the degree-prioritized variant of Section 4.3 that pulls high-degree
//     vertices ("Lady Gaga" vertices) into the cover first — Strategy
//     DegreePrioritized, still 2-approximate;
//   - a pure greedy max-degree cover used as an ablation — Strategy
//     GreedyVertex, no constant-factor guarantee;
//   - the (h+1)-approximate minimum h-hop vertex cover of Section 5.1.1 —
//     hhop.go, HHopCover, the foundation of the (h,k)-reach index;
//   - exact branch-and-bound solvers for small graphs — exact_test.go,
//     test-only oracles for the approximation guarantees.
//
// Edge direction is ignored when computing covers, exactly as the paper
// observes at the end of Section 4.1.1. The Set type gives O(1) membership
// plus a stable sorted list view; covers are immutable once computed and
// may be shared — BuildWithCover and the multi-rung ladder reuse one cover
// across many k values, as the Table 7 sweep requires.
package cover
