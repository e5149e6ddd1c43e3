package sweep

import (
	"dramtherm/internal/obs"
)

// Instrument registers the engine's metric families on reg: run-cache
// lookup outcomes, completed entries, worker-pool saturation and the
// leader build-latency histogram, plus the prefix-sharing families when
// EnablePrefixSharing has been called. The counter and gauge families
// read the cache's own counters and the pool channel, so /metrics and
// Stats report identical numbers by construction. Like SetRunFunc,
// Instrument must be called before the engine is shared across
// goroutines; a nil reg is a no-op (the uninstrumented hot path pays
// one nil check).
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
	reg.GaugeFunc("dramtherm_pool_workers",
		"Simulation worker-pool width.",
		func() float64 { return float64(cap(e.sem)) })
	reg.GaugeFunc("dramtherm_pool_busy",
		"Worker-pool slots currently held by leader builds.",
		func() float64 { return float64(len(e.sem)) })
	if e.prefix != nil {
		e.prefix.Instrument(reg)
	}
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
