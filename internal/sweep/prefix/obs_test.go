package prefix_test

import (
	"context"
	"reflect"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/dtm"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep/prefix"
)

// fabricatedRecord builds a valid importable group record whose first
// recorded action no real policy would take, with its only checkpoint
// after decision 0 — so a follower diverges immediately and has nothing
// to restore from.
func fabricatedRecord(key string) prefix.GroupRecord {
	var st sim.MEMSpotState
	absurd := dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: 1, FreqIndex: 3}
	rec := prefix.GroupRecord{
		Key: key,
		Decisions: []prefix.DecisionRecord{
			{In: dtm.Input{AMB: 100, DRAM: 70, Now: 0.01, Dt: 0.01}, Act: absurd},
			{In: dtm.Input{AMB: 100, DRAM: 70, Now: 0.02, Dt: 0.01}, Act: absurd},
		},
		Checkpoints: []prefix.CheckpointRecord{{Decision: 1, StateDigest: st.Digest(), State: st}},
	}
	rec.TraceDigest = prefix.TraceDigest(rec.Key, rec.Decisions)
	return rec
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
	if err := s.Import(fabricatedRecord("cold-slice")); err != nil {
		t.Fatal(err)
	}
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
	if err := s.Import(fabricatedRecord("g1")); err != nil {
		t.Fatal(err)
	}
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

// TestExportRoundTrip: Export visits every importable group, stops when
// the visitor declines, and the exported records re-import cleanly.
func TestExportRoundTrip(t *testing.T) {
	s := prefix.New(testSystem(t))
	for _, key := range []string{"a", "b"} {
		if err := s.Import(fabricatedRecord(key)); err != nil {
			t.Fatal(err)
		}
	}
	var recs []prefix.GroupRecord
	s.Export(func(r prefix.GroupRecord) bool {
		recs = append(recs, r)
		return true
	})
	if len(recs) != 2 {
		t.Fatalf("exported %d groups, want 2", len(recs))
	}
	fresh := prefix.New(testSystem(t))
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("exported record invalid: %v", err)
		}
		if err := fresh.Import(r); err != nil {
			t.Fatal(err)
		}
	}
	stopped := 0
	fresh.Export(func(prefix.GroupRecord) bool {
		stopped++
		return false
	})
	if stopped != 1 {
		t.Fatalf("visitor ran %d times after declining, want 1", stopped)
	}
}
