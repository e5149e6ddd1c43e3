// Package obs is dramtherm's dependency-free observability layer:
// Prometheus-compatible metrics (counters, gauges, fixed-bucket
// histograms, all optionally labeled), rendered in the text exposition
// format, plus the request-id and structured-logging glue the HTTP and
// cluster layers share.
//
// # Metrics
//
// A Registry holds metric families. Instrument-backed families are
// updated in place on the hot path:
//
//	reg := obs.NewRegistry()
//	hits := reg.Counter("dramtherm_hits_total", "Cache hits.")
//	hits.Inc()
//
// Snapshot-backed families read existing state at gather time, so a
// subsystem that already keeps atomics (the run cache, the peer ring,
// the gossip table) exposes them without double bookkeeping — and any
// other surface reading the same state (healthz) cannot drift from
// /metrics:
//
//	reg.GaugeFunc("dramtherm_cache_entries", "Completed entries.",
//		func() float64 { return float64(cache.Len()) })
//
// Every instrument is safe to use through a nil pointer, and a nil
// *Registry hands out nil instruments: an uninstrumented subsystem pays
// one nil check per update and nothing else. Registration is
// get-or-create, so instrumenting the same subsystem into the same
// registry twice is harmless.
//
// WriteText renders the whole registry deterministically (families and
// series in sorted order) in the Prometheus text exposition format;
// Handler serves it over HTTP. Lint parses and validates that format —
// the CI scrape check — without any promtool dependency.
//
// # Request ids and logging
//
// WithRequestID/RequestID thread a per-request correlation id through
// context: the HTTP middleware assigns one (or adopts the caller's
// X-Request-ID), the engine's contexts carry it into the remote
// backend, and the backend forwards it to peers, so one id follows a
// request across every node that touches it. LogfLogger adapts a
// printf-style sink into a *slog.Logger for httpapi's Logf callback.
package obs
