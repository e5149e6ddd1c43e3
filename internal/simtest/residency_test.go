package simtest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
)

// TestResidencySumsToSeconds states the residency invariant over seeded
// random workloads: every window adds its length to exactly one
// TimeAtCores and one TimeAtFreq entry, so each map sums to the
// simulated time. It holds in the final result on both level-2 paths,
// and in Snapshot states taken at decision boundaries, where the sums
// equal Now. Keys stay inside the machine: a running-core count in
// [0, Cores] and a DVFS index in [0, len(DVFS)). Limits are tightened
// on half the specs so policies throttle and residency moves between
// keys mid-run.
func TestResidencySumsToSeconds(t *testing.T) {
	const specs = 50
	cores, levels := fbconfig.DefaultSimParams.Cores, len(fbconfig.DTMDVFS)
	rng := rand.New(rand.NewSource(17))
	snapshots := 0
	for i := 0; i < specs; i++ {
		spec := RandomSpec(rng)
		if i%2 == 1 {
			spec.Limits = hotLimits
		}
		for _, exact := range []bool{false, true} {
			where := fmt.Sprintf("spec %d %+v exact=%v", i, spec, exact)
			cfg, err := spec.Config(exact)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := sim.NewMEMSpot(cfg, trace.NewStore(trace.BuilderFunc(SyntheticRates)))
			if err != nil {
				t.Fatal(err)
			}
			var hook func(*sim.MEMSpot) error
			if spec.SensorSeed == 0 { // noisy runs refuse snapshots
				hook = func(m *sim.MEMSpot) error {
					if d := m.Decisions(); d == 0 || d%23 != 0 {
						return nil
					}
					st, err := m.Snapshot()
					if err != nil {
						return err
					}
					checkResidency(t, fmt.Sprintf("%s decision %d", where, st.Decisions), st.Res, st.Now, cores, levels)
					snapshots++
					return nil
				}
			}
			res, err := ms.RunHooked(context.Background(), hook)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			checkResidency(t, where, res, res.Seconds, cores, levels)
		}
	}
	if snapshots < specs {
		t.Fatalf("only %d snapshots checked", snapshots)
	}
}

// checkResidency asserts that both residency maps of res sum to now
// within 1e-9 relative and that every key lies in range.
func checkResidency(t *testing.T, where string, res sim.MEMSpotResult, now float64, cores, levels int) {
	t.Helper()
	for _, c := range []struct {
		name string
		m    map[int]float64
		max  int // largest valid key
	}{{"TimeAtCores", res.TimeAtCores, cores}, {"TimeAtFreq", res.TimeAtFreq, levels - 1}} {
		var sum float64
		for k, v := range c.m {
			if k < 0 || k > c.max {
				t.Errorf("%s: %s key %d outside [0, %d]", where, c.name, k, c.max)
			}
			sum += v
		}
		if math.Abs(sum-now) > 1e-9*now {
			t.Errorf("%s: %s sums to %v, want %v", where, c.name, sum, now)
		}
	}
}
