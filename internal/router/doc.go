// Package router is the kreach distributed serving tier: a stateless L7
// front over N kreachd replicas (cmd/kreach-router is its daemon). One
// kreachd process caps out at one machine; the router is how "millions of
// users" traffic spreads across a replica set without giving up the
// single-node serving properties the lower layers worked for.
//
// Three ideas carry the package:
//
//   - Least-in-flight placement. Every read goes to the routable replica
//     with the fewest requests outstanding (Router.candidates; ties
//     rotate), and the rest of that ordering is the failover order.
//     Nothing is hashed and no request body is parsed for a routing key:
//     source affinity would only feed the replicas' result caches, and
//     the ledger (benchmark/, cache.* and server.reach_*handler_us rows)
//     shows those never beat the uncached handler.
//
//   - One request, one replica. /v1/reach, /v1/batch and /v1/neighbors
//     share one forward path: the client body goes unparsed to the
//     target, a transport error or 5xx fails over down the candidates,
//     and the reply is read whole before a byte of it reaches the client,
//     so a replica that dies mid-reply is failed over, never passed on
//     truncated. A replica answers a whole batch from one snapshot, so
//     "one epoch per batch" holds by construction and the reply — its
//     epoch included — is the replica's, byte for byte. Bodies past the
//     cap are refused with 413 on every path, never truncated and
//     forwarded.
//
//   - Health-checked replica sets. An active checker drives each replica
//     through healthy/degraded/ejected off /readyz + /v1/stats scrapes;
//     request-path failures demote immediately (a SIGKILLed replica stops
//     receiving traffic at the next request, not the next probe), and
//     recovery is observed, not assumed. Rolling reloads drain a replica
//     (no new placements, in-flight requests finish) before its reload
//     runs.
//
// The router holds no index state of its own: every replica serves the
// full dataset set (replication, not partitioning — sharding the graph
// itself is the follower-catch-up item in ROADMAP.md), which is what
// makes failover trivially correct and placement a pure load decision:
// any replica can answer any query.
package router
