package platform

import (
	"testing"

	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// TestSmokePlatform runs W1 on both emulated servers under every policy
// at reduced scale and prints the Fig. 5.6-style comparison.
func TestSmokePlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("platform smoke skipped in -short mode")
	}
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Machine{PE1950(), SR1500AL()} {
		store := trace.NewStore(NewLevel1(m, 1))
		var base sim.MEMSpotResult
		for _, k := range PolicyKinds() {
			res, err := RunPlatform(RunConfig{
				Machine: m, Policy: k, Mix: mix,
				RunsPerApp: 2, SensorSeed: 7,
			}, store)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, k, err)
			}
			if k == NoLimit {
				base = res
			}
			t.Logf("%s %-10s norm=%.2f (%.0f s, %.0f GB, L2m=%.1fG, cpu=%.0fW inlet=%.1fC maxAMB=%.1f E=%.0fkJ)",
				m.Name, k, res.Seconds/base.Seconds, res.Seconds, res.ReadGB+res.WriteGB,
				res.L2Misses/1e9, res.AvgCPUWatt, res.AvgInletC, res.MaxAMB, res.TotalEnergyJ()/1e3)
			if res.TimedOut {
				t.Errorf("%s/%s timed out", m.Name, k)
			}
		}
	}
}
