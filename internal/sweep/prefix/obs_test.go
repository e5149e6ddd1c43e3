package prefix_test

import (
	"context"
	"reflect"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/dtm"
	"dramtherm/internal/obs"
	"dramtherm/internal/sweep/prefix"
)

// fabricatedRecord builds a group record whose first recorded action no
// real policy would take, with its only checkpoint after decision 0 — so
// a follower diverges immediately and has nothing to restore from.
func fabricatedRecord(key string) prefix.GroupRecord {
	absurd := dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: 1, FreqIndex: 3}
	return prefix.GroupRecord{
		Key: key,
		Decisions: []prefix.DecisionRecord{
			{In: dtm.Input{AMB: 100, DRAM: 70, Now: 0.01, Dt: 0.01}, Act: absurd},
			{In: dtm.Input{AMB: 100, DRAM: 70, Now: 0.02, Dt: 0.01}, Act: absurd},
		},
		Checkpoints: []prefix.CheckpointRecord{{Decision: 1}},
	}
}

// TestRunColdOnImmediateDivergence: a follower that diverges at decision
// 0 with no usable checkpoint must fall back to a plain cold run — and
// the result must still be bit-identical to one run outside the sharer.
func TestRunColdOnImmediateDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	sys := testSystem(t)
	want, err := sys.RunCtx(context.Background(), runSpec(t, sys, "DTM-TS"))
	if err != nil {
		t.Fatal(err)
	}

	s := prefix.New(sys)
	s.Install(fabricatedRecord("cold-slice"))
	got, err := s.Run(context.Background(), "cold-slice", func() (core.RunSpec, error) {
		return runSpec(t, sys, "DTM-TS"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold-fallback result diverged from a plain run")
	}
	st := s.Stats()
	if st.Cold != 1 || st.Leaders != 0 || st.Resumed != 0 || st.FullReuse != 0 {
		t.Fatalf("stats %+v, want exactly one cold run", st)
	}
	if st.StepsSaved != 0 {
		t.Fatalf("cold fallback claims %d saved steps", st.StepsSaved)
	}
}

// TestInstrument: the sharer's metric families track its Stats and the
// run-mode counter carries one sample per mode.
func TestInstrument(t *testing.T) {
	s := prefix.New(testSystem(t))
	s.Install(fabricatedRecord("g1"))
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if got := reg.Sum("dramtherm_prefix_groups", nil); got != 1 {
		t.Fatalf("groups gauge %v, want 1", got)
	}
	if got := reg.Sum("dramtherm_prefix_timesteps_saved_total", nil); got != 0 {
		t.Fatalf("saved counter %v before any run", got)
	}
	for _, mode := range []string{"leader", "full_reuse", "resumed", "cold"} {
		if got := reg.Sum("dramtherm_prefix_runs_total", map[string]string{"mode": mode}); got != 0 {
			t.Fatalf("runs_total{mode=%s} = %v before any run", mode, got)
		}
	}
	// A nil registry must be a no-op, not a panic.
	s.Instrument(nil)
}
