package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/trace"
)

// hotTinyConfig is tinyConfig with limits low enough that DTM-ACG gates
// cores within the run, so residency moves between keys.
func hotTinyConfig(t *testing.T, policy dtm.Policy) MEMSpotConfig {
	cfg := tinyConfig(t, policy)
	cfg.Limits = fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	cfg.InstrScale = 0.05
	return cfg
}

func hotACG() dtm.Policy { return dtm.NewACG(dtm.LevelsForTDP(103.5, 85), 4) }

// checkResidency asserts that each residency map sums to now within
// 1e-9 relative and holds no zero-valued entry: every window adds its
// length to exactly one entry of each.
func checkResidency(t *testing.T, where string, res MEMSpotResult, now float64) {
	t.Helper()
	for name, m := range map[string]map[int]float64{"TimeAtCores": res.TimeAtCores, "TimeAtFreq": res.TimeAtFreq} {
		var sum float64
		for k, v := range m {
			if v <= 0 {
				t.Errorf("%s: %s[%d] = %v, want > 0", where, name, k, v)
			}
			sum += v
		}
		if math.Abs(sum-now) > 1e-9*now {
			t.Errorf("%s: %s sums to %v, want %v", where, name, sum, now)
		}
	}
}

// cancelAt wraps a policy and cancels the run's context inside decision k.
type cancelAt struct {
	dtm.Policy
	k, n   int
	cancel context.CancelFunc
}

func (c *cancelAt) Decide(in dtm.Input) dtm.Action {
	if c.n == c.k {
		c.cancel()
	}
	c.n++
	return c.Policy.Decide(in)
}

// TestRunCanceledMidRun: a cancellation landing inside decision k stops
// the run at the next window boundary — after window k, the window
// that takes the decision — with the context error and a partial result
// whose residency covers exactly the simulated time, on both level-2
// paths.
func TestRunCanceledMidRun(t *testing.T) {
	const k = 250
	store := tinyStore()
	for _, exact := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := hotTinyConfig(t, &cancelAt{Policy: hotACG(), k: k, cancel: cancel})
		cfg.ExactThermal = exact
		ms, err := NewMEMSpot(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.RunCtx(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("exact=%v: err = %v, want context.Canceled", exact, err)
		}
		if got := ms.StepsTaken(); got != k+1 {
			t.Fatalf("exact=%v: StepsTaken = %d, want %d", exact, got, k+1)
		}
		if res.Seconds != ms.Now() {
			t.Fatalf("exact=%v: partial Seconds %v, want Now %v", exact, res.Seconds, ms.Now())
		}
		checkResidency(t, "canceled", res, res.Seconds)
	}
}

// TestResidencyOnEveryReturn: every way out of RunHooked — completion,
// MaxSeconds, a hook error, a step error — returns residency that sums
// to Seconds, on both level-2 paths. The step error comes from a store
// that fails the first design point with an idle core, which the failed
// window must not leave behind as a zero-valued TimeAtCores key.
func TestResidencyOnEveryReturn(t *testing.T) {
	errHook := errors.New("hook stop")
	errBuild := errors.New("build refused")
	failShort := func() *trace.Store {
		l1 := fastLevel1()
		return trace.NewStore(trace.BuilderFunc(func(dp trace.DesignPoint) (trace.Rates, error) {
			if len(dp.AppNames()) < 4 {
				return trace.Rates{}, errBuild
			}
			return l1.Build(dp)
		}))
	}
	cases := []struct {
		name    string
		cfg     func() MEMSpotConfig
		store   func() *trace.Store
		hook    func(*MEMSpot) error
		wantErr error
	}{
		{name: "done", cfg: func() MEMSpotConfig { return hotTinyConfig(t, hotACG()) }, store: tinyStore},
		{name: "timeout", cfg: func() MEMSpotConfig {
			cfg := hotTinyConfig(t, hotACG())
			cfg.MaxSeconds = 3
			return cfg
		}, store: tinyStore},
		{name: "hook error", cfg: func() MEMSpotConfig { return hotTinyConfig(t, hotACG()) }, store: tinyStore,
			hook: func(m *MEMSpot) error {
				if m.Decisions() == 180 {
					return errHook
				}
				return nil
			}, wantErr: errHook},
		{name: "step error", cfg: func() MEMSpotConfig { return tinyConfig(t, &dtm.NoLimit{Cores: 4}) },
			store: failShort, wantErr: errBuild},
	}
	for _, tc := range cases {
		for _, exact := range []bool{false, true} {
			cfg := tc.cfg()
			cfg.ExactThermal = exact
			ms, err := NewMEMSpot(cfg, tc.store())
			if err != nil {
				t.Fatal(err)
			}
			res, err := ms.RunHooked(context.Background(), tc.hook)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s exact=%v: err = %v, want %v", tc.name, exact, err, tc.wantErr)
			}
			if ms.StepsTaken() == 0 {
				t.Fatalf("%s exact=%v: no window ran", tc.name, exact)
			}
			if res.TimedOut != (tc.name == "timeout") {
				t.Fatalf("%s exact=%v: TimedOut = %v", tc.name, exact, res.TimedOut)
			}
			checkResidency(t, tc.name, res, res.Seconds)
			if _, ok := res.TimeAtCores[3]; tc.wantErr == errBuild && ok {
				t.Errorf("%s exact=%v: the failed window left a TimeAtCores[3] entry", tc.name, exact)
			}
		}
	}
}
