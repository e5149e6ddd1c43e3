package platform

import (
	"testing"

	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// TestSmokePlatform runs W1 on both emulated servers under every policy
// at reduced scale, prints the Fig. 5.6-style comparison and checks
// what holds with a margin: no run times out, every throttling policy
// slows the SR1500AL (normalized runtimes 1.36–2.17), and DTM-BW is the
// slowest policy on both machines. On the PE1950 the other throttling
// policies run at 0.97–0.99 of No-limit, so "every policy slows it"
// would not hold there.
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
		norm := make(map[PolicyKind]float64)
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
			norm[k] = res.Seconds / base.Seconds
			t.Logf("%s %-10s norm=%.2f (%.0f s, %.0f GB, L2m=%.1fG, cpu=%.0fW inlet=%.1fC maxAMB=%.1f E=%.0fkJ)",
				m.Name, k, norm[k], res.Seconds, res.ReadGB+res.WriteGB,
				res.L2Misses/1e9, res.AvgCPUWatt, res.AvgInletC, res.MaxAMB, res.TotalEnergyJ()/1e3)
			if res.TimedOut {
				t.Errorf("%s/%s timed out", m.Name, k)
			}
		}
		for k, n := range norm {
			if m.Name == "SR1500AL" && k != NoLimit && !(n > 1) {
				t.Errorf("%s/%s: normalized runtime %.2f, want > 1 (the policy throttles)", m.Name, k, n)
			}
			if k != BW && !(n < norm[BW]) {
				t.Errorf("%s/%s: normalized runtime %.2f, want below DTM-BW's %.2f", m.Name, k, n, norm[BW])
			}
		}
	}
}
