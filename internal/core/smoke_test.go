//go:build !race

// The full-length W1 simulations here take about 28 s; the race
// detector multiplies that more than tenfold (324 s on a 2-CPU host),
// so, like the exp goldens, they run in the plain test suite only.

package core

import (
	"testing"
	"time"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/workload"
)

// TestSmokeW1 runs W1 end-to-end under every Chapter 4 policy at reduced
// scale and logs normalized runtimes — the first full-loop validation
// of the reproduction (compare with Fig. 4.3 AOHS_1.5). W1 overheats
// AOHS_1.5 without DTM, so every policy must slow it down: the log
// reads 1.69 (DTM-ACG+PID) to 1.90 (DTM-BW).
func TestSmokeW1(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Replicas = 4
	sys := NewSystem(cfg)
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	base := runPolicy(t, sys, mix, "No-limit", fbconfig.CoolingAOHS15, Isolated)
	t.Logf("No-limit: %.0f s, %.0f GB traffic, maxAMB=%.1f maxDRAM=%.1f",
		base.Seconds, base.TotalTrafficGB(), base.MaxAMB, base.MaxDRAM)
	if base.TimedOut {
		t.Fatal("baseline timed out")
	}
	for _, name := range []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS", "DTM-ACG+PID", "DTM-CDVFS+PID", "DTM-BW+PID"} {
		start := time.Now()
		res := runPolicy(t, sys, mix, name, fbconfig.CoolingAOHS15, Isolated)
		norm := res.Seconds / base.Seconds
		t.Logf("%-14s norm=%.2f  (%.0f s, traffic %.0f GB, maxAMB %.1f, overshoots %d, memE %.0f kJ, cpuE %.0f kJ) [wall %.1fs]",
			name, norm, res.Seconds, res.TotalTrafficGB(), res.MaxAMB, res.Overshoots,
			res.MemEnergyJ/1e3, res.CPUEnergyJ/1e3, time.Since(start).Seconds())
		if res.MaxAMB > 111 {
			t.Errorf("%s exceeded AMB TDP badly: %.1f", name, res.MaxAMB)
		}
		if norm <= 1 {
			t.Errorf("%s normalized runtime %.3f, want > 1: the policy never throttled", name, norm)
		}
	}
	builds, hits := sys.Store().Counts()
	t.Logf("trace store: %d builds, %d hits", builds, hits)
}
