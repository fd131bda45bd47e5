// Package router is the kreach distributed serving tier: a stateless L7
// front over N kreachd replicas (cmd/kreach-router is its daemon). One
// kreachd process caps out at one machine; the router is how "millions of
// users" traffic spreads across a replica set without giving up the
// single-node serving properties the lower layers worked for.
//
// Four ideas carry the package:
//
//   - Least-in-flight placement. Every read goes to the routable replica
//     with the fewest requests outstanding (Router.candidates; ties
//     rotate), and the rest of that ordering is the failover/hedge order.
//     Nothing is hashed and no request body is parsed for a routing key:
//     source affinity would only feed the replicas' result caches, and
//     the ledger (benchmark/, cache.* and server.reach_*handler_us rows)
//     shows those never beat the uncached handler.
//
//   - Scatter-gather batches. /v1/batch is cut into contiguous legs of at
//     most LegPairs (a batch within that is one leg on one replica at one
//     epoch), the legs dispatched in parallel under the request context
//     (a client disconnect cancels every leg), and the answers copied
//     back at their offsets. Failed legs retry on the next candidates
//     with jittered backoff; a leg past its latency budget is hedged
//     against the next candidate and the first answer wins. Whatever
//     cannot be answered after retries is reported as a typed partial
//     error — never silently dropped. The client body, the leg bodies,
//     the backend replies and the merged reply all go through
//     internal/server's batch codec (batchwire.go): no reflection on the
//     hop, and no second definition of the wire format. Bodies past the
//     cap are refused with 413 on every path, never truncated and
//     forwarded.
//
//   - Health-checked replica sets. An active checker drives each replica
//     through healthy/degraded/ejected off /readyz + /v1/stats scrapes;
//     request-path failures demote immediately (a SIGKILLed replica stops
//     receiving traffic at the next request, not the next probe), and
//     recovery is observed, not assumed.
//
//   - Epoch fencing. Index epochs are process-local generation counters,
//     so the fence is per-replica: the router tracks each replica's
//     per-dataset epoch from /v1/stats (and from every batch leg, which
//     carries the epoch it was answered under) and refuses to merge a
//     scatter-gather response in which one replica answered legs under
//     two different index generations — stale legs are re-dispatched, and
//     a batch that cannot be made single-generation-per-replica fails
//     typed rather than returning a Frankenstein answer. Rolling reloads
//     drain a replica (no new legs, in-flight legs finish) before its
//     reload runs, so the mixed case never arises on the orchestrated
//     path; the fence is the backstop for reloads the router did not
//     initiate.
//
// The router holds no index state of its own: every replica serves the
// full dataset set (replication, not partitioning — sharding the graph
// itself is the follower-catch-up item in ROADMAP.md), which is what
// makes failover trivially correct and placement a pure load decision:
// any replica can answer any query.
package router
