package sim

import (
	"math"
	"reflect"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/trace"
)

// engagement wraps a policy and notes whether it ever throttled.
type engagement struct {
	dtm.Policy
	throttled bool
}

func (e *engagement) Decide(in dtm.Input) dtm.Action {
	act := e.Policy.Decide(in)
	if act.ActiveCores < 4 || !math.IsInf(act.BWCapGBps, 1) || act.MemOff {
		e.throttled = true
	}
	return act
}

// TestLookupBudget: over a warmed store, a level-2 run goes to the store
// once per distinct design point it visits, however often its action
// alternates or its ACG rotation cycles through subsets, and its result
// is the ExactThermal reference's, which goes to the store every window.
func TestLookupBudget(t *testing.T) {
	lim := fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	levels := dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP)
	for _, tc := range []struct {
		name     string
		policy   func() dtm.Policy
		throttle bool
	}{
		{"DTM-ACG", func() dtm.Policy { return dtm.NewACG(levels, 4) }, true},
		{"DTM-BW", func() dtm.Policy { return dtm.NewBW(levels, 4) }, true},
		{"No-limit", func() dtm.Policy { return &dtm.NoLimit{Cores: 4} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l1 := fastLevel1()
			visited := map[trace.DesignPoint]bool{}
			store := trace.NewStore(trace.BuilderFunc(func(dp trace.DesignPoint) (trace.Rates, error) {
				visited[dp] = true
				return l1.Build(dp)
			}))
			run := func(exact bool) (MEMSpotResult, *engagement) {
				pol := &engagement{Policy: tc.policy()}
				cfg := tinyConfig(t, pol)
				cfg.Limits = lim
				cfg.InstrScale = 0.1
				cfg.ExactThermal = exact
				res, err := RunMix(cfg, store)
				if err != nil {
					t.Fatal(err)
				}
				return res, pol
			}
			// The first run, the reference path, warms the store: one
			// build per distinct design point the run visits.
			want, pol := run(true)
			if pol.throttled != tc.throttle {
				t.Fatalf("throttled = %v, want %v", pol.throttled, tc.throttle)
			}
			_, hits0 := store.Counts()
			got, _ := run(false)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("memoized run differs from the reference run")
			}
			builds, hits := store.Counts()
			if builds != len(visited) {
				t.Fatalf("warm run built %d records for %d design points", builds, len(visited))
			}
			if got := hits - hits0; got != len(visited) {
				t.Fatalf("warm run made %d store lookups for %d distinct design points", got, len(visited))
			}
			t.Logf("%d distinct design points", len(visited))
		})
	}
}
