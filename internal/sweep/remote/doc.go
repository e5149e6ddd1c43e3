// Package remote fans simulation runs out to a cluster of dramthermd
// peers — the distributed backend behind a sweep.Engine.
//
// # Routing
//
// Backend implements sweep.BatchBackend; install it with
// Engine.SetBatchBackend. Each spec is canonicalized into its cache Key
// (Config.Key, normally Engine.Key) and routed by consistent hashing:
// every peer contributes 64 points to a hash ring, and the spec
// goes to the first peer clockwise of the key's hash. The same key
// therefore always lands on the same peer while the membership is
// stable, so each peer's run cache (and level-1 trace store) stays hot
// for its shard of the grid — repeated or overlapping sweeps hit warm
// caches instead of resimulating.
//
// # Health and failover
//
// Peers start admitted. A failed request ejects a peer from the ring,
// and request routing retries it half-open once its backoff expires.
// Under Follow the ejection is also a gossip suspicion, and gossip's own
// failed exchanges remove a silent member from the ring with no
// dispatch traffic at all. A shard whose peer is down or dies re-plans its
// unacknowledged specs onto the surviving ring, and when no peer is
// left they are handed back to the engine with sweep.ErrRunLocal and
// run on its own pool — a cluster degrades to a slower single node,
// never to an outage. Caller cancellation and 4xx rejections are
// terminal, not failover triggers: no other peer would do better.
//
// # Wire protocol
//
// There is one protocol between nodes: POST /v1/exec/batch, bounded by
// a per-peer request pool. The body is a BatchRequest (a shard of
// specs); the reply streams one NDJSON BatchLine per spec as it
// completes, carrying the full result plus the peer's own cache
// outcome. That outcome and the peer id flow back through
// sweep.RunInfo into Event.Peer, the job event log, and the SSE
// stream, so a cluster-wide sweep is observable per spec. The
// synchronous POST /v1/exec (ExecPath, ExecResponse) is a client
// endpoint; coordinators never dispatch to it.
//
// # Batched sweeps
//
// A whole sweep is planned up front (PlanShards groups the grid's
// distinct uncached specs by ring owner) and each peer receives its
// entire shard in a single request — one round trip per peer instead
// of one per spec, with the same per-spec observability. A single
// Engine.Run is the degenerate case: a shard of one. A peer that dies
// mid-stream only loses its unacknowledged specs: they re-plan onto
// the surviving ring. A healthy peer that answers 413 (the shard is
// over its batch limit) gets the shard back in halves until they fit.
//
// # Dynamic membership
//
// The ring is not fixed at construction: SetMembers reconciles the
// peer set in place — joiners enter admitted, leavers drop out (their
// in-flight requests fail over), retained members keep their health
// state and counters — so the ring re-forms on join/leave without
// restarting the coordinator. Follow makes the gossip subpackage
// (internal/sweep/remote/gossip) that membership source: the node's
// view changes drive SetMembers, dispatch-failure ejections become
// gossip suspicions, and a coordinator gossips as an observer with no
// URL, so no ring ever holds a coordinator.
//
// There are no replicas. Every result is a pure function of its spec's
// cache key, so a lost peer costs only its shard's warmth: the key's
// next ring owner rebuilds it, slower but never wrong.
package remote
