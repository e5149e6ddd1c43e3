package sweep

import (
	"fmt"
	"time"

	"dramtherm/internal/obs"
)

// Instrument registers the engine's metric families on reg: run-cache
// lookup outcomes, completed entries, worker-pool saturation, records
// segment-log replay skipped, the leader build-latency
// histogram and the adaptive-search families, plus
// the prefix-sharing families when EnablePrefixSharing has been called.
// The counter and gauge families read the cache's own counters and the
// pool channel, so /metrics and Stats report identical numbers by
// construction. Like SetRunFunc, Instrument must be called before the
// engine is shared across goroutines; a nil reg is a no-op (the
// uninstrumented hot path pays one nil check).
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.buildDur = reg.Histogram("dramtherm_cache_build_seconds",
		"Wall-clock seconds per leader build (one unique simulation each).",
		obs.DefBuckets)
	reg.SampleFunc(obs.KindCounter, "dramtherm_cache_requests_total",
		"Cache lookups by outcome: built (leader ran the builder), hit (completed entry), joined (deduplicated against an in-flight build).",
		[]string{"outcome"}, func() []obs.Sample {
			st := e.cache.Stats()
			return []obs.Sample{
				{LabelValues: []string{"built"}, Value: float64(st.Builds)},
				{LabelValues: []string{"hit"}, Value: float64(st.Hits)},
				{LabelValues: []string{"joined"}, Value: float64(st.Waits)},
			}
		})
	reg.GaugeFunc("dramtherm_cache_entries",
		"Completed run-cache entries.",
		func() float64 { return float64(e.cache.Len()) })
	reg.SampleFunc(obs.KindCounter, "dramtherm_state_replay_skipped_total",
		"Segment-log records replay dropped, by kind: run (keyed under another config digest), trace (built by another level-1 configuration), checkpoint (a prefix-sharing frame written by an older build).",
		[]string{"kind"}, func() []obs.Sample {
			return []obs.Sample{
				{LabelValues: []string{"run"}, Value: float64(e.skippedRuns.Load())},
				{LabelValues: []string{"trace"}, Value: float64(e.skippedTraces.Load())},
				{LabelValues: []string{"checkpoint"}, Value: float64(e.skippedCheckpoints.Load())},
			}
		})
	reg.GaugeFunc("dramtherm_pool_workers",
		"Simulation worker-pool width.",
		func() float64 { return float64(cap(e.sem)) })
	reg.GaugeFunc("dramtherm_pool_busy",
		"Worker-pool slots currently held by leader builds.",
		func() float64 { return float64(len(e.sem)) })
	e.search = &searchMetrics{
		rounds: reg.Counter("dramtherm_search_rounds_total",
			"Adaptive-search rounds executed (one multi-spec sweep each)."),
		pruned: reg.Counter("dramtherm_search_specs_pruned_total",
			"Candidates discarded by successive halving before full fidelity."),
		fullFid: reg.Counter("dramtherm_search_full_fidelity_runs_total",
			"Search specs executed at full fidelity (InstrScale 1)."),
		roundDur: reg.HistogramVec("dramtherm_search_round_seconds",
			"Wall-clock seconds per search round, by fidelity rung.",
			obs.DefBuckets, "rung"),
	}
	if e.prefix != nil {
		e.prefix.Instrument(reg)
	}
}

// searchMetrics are the adaptive-search instruments. The counters
// register at zero, so a scrape sees them before the first search. A
// nil *searchMetrics is a no-op.
type searchMetrics struct {
	rounds   *obs.Counter
	pruned   *obs.Counter
	fullFid  *obs.Counter
	roundDur *obs.HistogramVec // by rung
}

// roundDone records one completed round of n specs.
func (m *searchMetrics) roundDone(rung float64, dur time.Duration, n, pruned int) {
	if m == nil {
		return
	}
	m.rounds.Inc()
	m.pruned.Add(float64(pruned))
	if rung == 1 {
		m.fullFid.Add(float64(n))
	}
	m.roundDur.WithLabelValues(fmt.Sprintf("%g", rung)).Observe(dur.Seconds())
}

// Instrument registers the job registry's metric families on reg: jobs
// by status (gauge, counted under the registry lock so it matches List)
// and evictions by reason (ttl, capacity, cancel). Call it once, before
// the registry is shared.
func (r *Jobs) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.evictions = reg.CounterVec("dramtherm_jobs_evictions_total",
		"Jobs evicted from the registry, by reason: ttl (reaper), capacity (oldest finished dropped for a new job), cancel (client deleted a finished job).",
		"reason")
	reg.SampleFunc(obs.KindGauge, "dramtherm_jobs",
		"Registered jobs by status.",
		[]string{"status"}, func() []obs.Sample {
			counts := map[JobStatus]int{}
			r.mu.Lock()
			for _, j := range r.jobs {
				counts[j.status]++
			}
			r.mu.Unlock()
			out := make([]obs.Sample, 0, 4)
			for _, s := range []JobStatus{JobRunning, JobDone, JobError, JobCancelled} {
				out = append(out, obs.Sample{LabelValues: []string{string(s)}, Value: float64(counts[s])})
			}
			return out
		})
}
