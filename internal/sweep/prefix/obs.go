package prefix

import (
	"dramtherm/internal/obs"
)

// Instrument registers the sharer's metric families on reg. The families
// read the sharer's own atomics, so /metrics and Stats report identical
// numbers by construction. Call before the sharer is shared across
// goroutines; a nil reg is a no-op.
func (s *Sharer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("dramtherm_prefix_timesteps_saved_total",
		"Simulated windows skipped via checkpoint resume or full result reuse — the sims-avoided headline.",
		func() float64 { return float64(s.stepsSaved.Load()) })
	reg.CounterFunc("dramtherm_prefix_timesteps_simulated_total",
		"Simulated windows actually stepped through the hot loop under prefix sharing.",
		func() float64 { return float64(s.stepsRun.Load()) })
	reg.CounterFunc("dramtherm_prefix_checkpoints_total",
		"Checkpoints captured by group leaders at strided decision boundaries.",
		func() float64 { return float64(s.checkpoints.Load()) })
	reg.GaugeFunc("dramtherm_prefix_groups",
		"Policy-sliced prefix groups currently tracked.",
		func() float64 { return float64(s.groups.Len()) })
	reg.SampleFunc(obs.KindCounter, "dramtherm_prefix_runs_total",
		"Runs by mode: leader (cold run recording the group log), full_reuse (follower matched the whole log), resumed (follower restored a checkpoint), cold (follower fell back to full replay).",
		[]string{"mode"}, func() []obs.Sample {
			return []obs.Sample{
				{LabelValues: []string{"leader"}, Value: float64(s.leaders.Load())},
				{LabelValues: []string{"full_reuse"}, Value: float64(s.fullReuse.Load())},
				{LabelValues: []string{"resumed"}, Value: float64(s.resumed.Load())},
				{LabelValues: []string{"cold"}, Value: float64(s.cold.Load())},
			}
		})
}
