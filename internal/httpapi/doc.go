// Package httpapi serves a sweep.Engine over HTTP/JSON — the wire layer
// of dramthermd, importable so examples and tests can embed the full
// service in-process:
//
//	POST   /v1/runs              submit one run asynchronously → {"id": ...}
//	GET    /v1/runs              list jobs (?status=, ?offset=, ?limit=)
//	GET    /v1/runs/{id}         job status and, when done, the result
//	                             (?traces=1 includes temperature traces)
//	GET    /v1/runs/{id}/events  live job progress over SSE
//	DELETE /v1/runs/{id}         cancel a running job / evict a finished one
//	POST   /v1/sweeps            spec list or grid; ?async=1 submits a job
//	POST   /v1/exec              synchronous single-run execution
//	POST   /v1/exec/batch        whole-shard execution: specs in, per-spec
//	                             outcomes streamed back as NDJSON lines —
//	                             the endpoint cluster coordinators dispatch to
//	GET    /v1/healthz           liveness: version, uptime, job count,
//	                             cache statistics, peer ring when clustered
//
// docs/api.md is the field-by-field reference for every endpoint.
//
// Async jobs live in a sweep.Jobs registry: bounded, TTL-evicted, each
// with its own cancellable context and a retained event log streamed by
// the SSE endpoint. In cluster mode the same server plays both roles:
// a coordinator (its engine routes cache misses through
// internal/sweep/remote) and a worker (its /v1/exec/batch serves
// coordinators).
package httpapi
