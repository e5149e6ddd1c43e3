// Package sweep is the concurrent simulation-serving subsystem and the
// one way callers run a spec of either chapter: it turns the blocking,
// uncached core.System.RunCtx call (Chapter 4) and platform.Server runs
// (the Chapter 5 testbeds) into a service that many clients (experiment
// drivers, CLIs, examples, the dramthermd HTTP server) share.
//
// # Specs and keys
//
// A Spec names one run entirely by value — mix, policy, cooling,
// thermal model and overrides, or a testbed machine and its run shape —
// so it can be transported as JSON and canonicalized into a cache Key. The Key includes the
// system-configuration digest, so caches and state files from a
// differently configured system can never satisfy a lookup. A Grid
// expands cartesian products of spec fields into deterministic job
// lists.
//
// # Cache and engine
//
// The run cache is a memo.Table, the keyed singleflight table shared
// with the level-1 trace store and the prefix groups: concurrent
// requests for the same Key share one simulation, and distinct Keys run
// in parallel, each leader holding a slot of the engine's bounded
// worker pool. Engine layers validation, spec resolution
// (names → live workload mixes, fresh stateful policies, cooling
// columns) and normalization on top. Engine.Run is the one cached entry
// point: it returns the result plus a RunInfo telling how the run was
// served. Engine.Exec is the uncached leader body behind it. Sweep
// executes whole grids with cancellation, per-spec lifecycle events
// (Options.OnEvent) and report-table aggregation, and
// EnableSegmentLog makes completed entries durable.
//
// # Adaptive search
//
// Engine.Search runs successive halving over the same candidates a
// Sweep would take: each round is one Sweep at a fractional
// Spec.InstrScale rung, and the better 1/eta advance to the next rung
// until one full-fidelity round names the winner. A rung shortens only
// level 2, so search pays on warm level-1 traces (about 1.6x faster
// than the full grid over the 32 Chapter 4 candidates) and costs about
// 8% more than the grid on cold ones.
//
// # Jobs
//
// Jobs is the asynchronous job registry between the engine and a front
// end such as internal/httpapi: bounded, TTL-evicted, each job with its
// own cancellable context and an append-only event log that any number
// of streaming observers can follow without missing or reordering
// events (EventsSince).
//
// # Cluster mode
//
// SetBatchBackend reroutes cache misses through a BatchBackend instead
// of local execution: Sweep hands it a grid's distinct uncached specs in
// one call and Run hands it a shard of one. The engine still
// deduplicates locally — the backend sees each distinct key once — and
// the backend's RunInfo (its outcome plus the executing peer id) flows
// through Event.Peer into the job event log and out over SSE. Specs the
// backend hands back with ErrRunLocal run on the engine's own pool. The
// internal/sweep/remote package implements the backend that fans runs
// out to remote dramthermd peers by consistent hashing on the canonical
// Key. SetBackend installs a spec-at-a-time SpecBackend instead.
package sweep
