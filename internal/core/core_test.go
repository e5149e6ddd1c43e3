package core

import (
	"context"
	"testing"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/workload"
)

// runPolicy runs mix under a fresh policy named name, built against the
// system's limits, under cooling and model.
func runPolicy(t *testing.T, sys *System, mix workload.Mix, name string, cooling fbconfig.Cooling, model ThermalModelKind) sim.MEMSpotResult {
	t.Helper()
	p, err := sys.NewPolicyFor(name, sys.Config().Limits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCtx(context.Background(), RunSpec{Mix: mix, Policy: p, Cooling: cooling, Model: model})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// normalizedRuntime is runtime(name)/runtime(No-limit) for mix under
// AOHS 1.5 and the isolated model: the unit of Figs. 4.2/4.3/4.12.
func normalizedRuntime(t *testing.T, sys *System, mix workload.Mix, name string) float64 {
	t.Helper()
	res := runPolicy(t, sys, mix, name, fbconfig.CoolingAOHS15, Isolated)
	base := runPolicy(t, sys, mix, "No-limit", fbconfig.CoolingAOHS15, Isolated)
	return res.Seconds / base.Seconds
}

func TestPolicyConstruction(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	for _, name := range PolicyNames() {
		p, err := sys.NewPolicyFor(name, sys.Config().Limits)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy name %q != %q", p.Name(), name)
		}
	}
	if _, err := sys.NewPolicyFor("DTM-NOPE", sys.Config().Limits); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Params.Cores != 4 || cfg.Interval != 0.01 || cfg.Replicas <= 0 {
		t.Fatalf("defaults: %+v", cfg)
	}
	// Zero config falls back to defaults.
	sys := NewSystem(Config{})
	if sys.Config().Params.Cores != 4 {
		t.Fatal("zero config not defaulted")
	}
}

func TestModelKindString(t *testing.T) {
	if Isolated.String() != "isolated" || Integrated.String() != "integrated" {
		t.Fatal("kind strings wrong")
	}
}

func TestRunValidation(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	if _, err := sys.RunCtx(context.Background(), RunSpec{}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// TestNormalizedRuntimeTiny runs the full pipeline at a tiny scale and
// checks the normalized runtime of a throttled policy exceeds one.
func TestNormalizedRuntimeTiny(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.05
	// Low thermal limits so the short run still hits emergencies.
	cfg.Limits = fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	sys := NewSystem(cfg)
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	n := normalizedRuntime(t, sys, mix, "DTM-TS")
	if n <= 1.0 {
		t.Fatalf("DTM-TS normalized runtime %v, want > 1", n)
	}
	if n > 10 {
		t.Fatalf("DTM-TS normalized runtime %v implausible", n)
	}
}

// TestSpecOverrides checks that interval/limits/psixi overrides reach the
// level-2 run.
func TestSpecOverrides(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.01
	sys := NewSystem(cfg)
	mix, _ := workload.MixByName("W8")
	p, _ := sys.NewPolicyFor("No-limit", cfg.Limits)
	res, err := sys.RunCtx(context.Background(), RunSpec{
		Mix: mix, Policy: p, Cooling: fbconfig.CoolingFDHS10, Model: Integrated,
		PsiXi: 2.0, Interval: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Fatal("empty run")
	}
}
