package prefix_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep/prefix"
	"dramtherm/internal/workload"
)

// scripted is a deterministic fake policy: it answers decision i with
// acts[min(i, len-1)], ignoring the input.
type scripted struct {
	acts []dtm.Action
	i    int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Reset()       { s.i = 0 }
func (s *scripted) Decide(dtm.Input) dtm.Action {
	k := s.i
	if k >= len(s.acts) {
		k = len(s.acts) - 1
	}
	s.i++
	return s.acts[k]
}

func neutral(cores int) dtm.Action {
	return dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: cores, FreqIndex: 0}
}

func TestDivergencePoint(t *testing.T) {
	n4, off := neutral(4), dtm.Action{MemOff: true, BWCapGBps: dtm.NoCap(), ActiveCores: 4}
	log := []prefix.DecisionRecord{{Act: n4}, {Act: n4}, {Act: off}, {Act: n4}}

	if k := prefix.DivergencePoint(log, &scripted{acts: []dtm.Action{n4, n4, off, n4}}); k != len(log) {
		t.Fatalf("full match: k = %d, want %d", k, len(log))
	}
	if k := prefix.DivergencePoint(log, &scripted{acts: []dtm.Action{n4, n4, n4}}); k != 2 {
		t.Fatalf("divergence at 2: k = %d", k)
	}
	if k := prefix.DivergencePoint(log, &scripted{acts: []dtm.Action{off}}); k != 0 {
		t.Fatalf("immediate divergence: k = %d", k)
	}
}

func TestRecorder(t *testing.T) {
	inner := &scripted{acts: []dtm.Action{neutral(4)}}
	r := prefix.NewRecorder(inner)
	if r.Name() != "scripted" {
		t.Fatalf("name %q", r.Name())
	}
	for i := 0; i < 5; i++ {
		r.Decide(dtm.Input{AMB: float64(i)})
	}
	log := r.Log()
	if len(log) != 5 || r.Truncated() {
		t.Fatalf("log %d entries, truncated %v", len(log), r.Truncated())
	}
	if log[3].In.AMB != 3 {
		t.Fatalf("input not recorded: %+v", log[3])
	}
	r.Reset()
	if len(r.Log()) != 0 || inner.i != 0 {
		t.Fatal("reset did not clear recorder and inner policy")
	}
}

// testSystem is the golden-scale real system: small enough for CI, hot
// enough (tightened limits) that policies actually throttle and diverge.
func testSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.02
	cfg.Limits = fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	return core.NewSystem(cfg)
}

func runSpec(t *testing.T, sys *core.System, policy string) core.RunSpec {
	t.Helper()
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sys.NewPolicyFor(policy, sys.Config().Limits)
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{Mix: mix, Policy: pol, Cooling: fbconfig.CoolingAOHS15}
}

// TestLeaderFollowerBitIdentical drives four policies through one
// sharer group against a real system and requires every result to be
// bit-identical to its cold replay — the package-level statement of the
// contract the internal/simtest divergence suite proves at sweep scale.
func TestLeaderFollowerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	sys := testSystem(t)
	policies := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}

	cold := make(map[string]sim.MEMSpotResult, len(policies))
	for _, p := range policies {
		res, err := sys.RunCtx(context.Background(), runSpec(t, sys, p))
		if err != nil {
			t.Fatal(err)
		}
		cold[p] = res
	}

	s := prefix.New(sys)
	var exported []prefix.GroupRecord
	s.OnGroupComplete(func(rec prefix.GroupRecord) { exported = append(exported, rec) })
	for _, p := range policies {
		p := p
		res, err := s.Run(context.Background(), "slice", func() (core.RunSpec, error) {
			return runSpec(t, sys, p), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, cold[p]) {
			t.Fatalf("%s: shared result diverged from cold replay", p)
		}
	}

	st := s.Stats()
	if st.Leaders != 1 {
		t.Fatalf("leaders = %d, want 1", st.Leaders)
	}
	if st.FullReuse+st.Resumed+st.Cold != int64(len(policies))-1 {
		t.Fatalf("follower modes don't sum: %+v", st)
	}
	if st.StepsSaved == 0 {
		t.Fatalf("no timesteps saved: %+v", st)
	}
	if len(exported) != 1 {
		t.Fatalf("%d group records exported, want 1", len(exported))
	}

	// The exported record, installed into a fresh sharer, must still
	// serve bit-identical resumes.
	s2 := prefix.New(sys)
	s2.Install(exported[0])
	res, err := s2.Run(context.Background(), "slice", func() (core.RunSpec, error) {
		return runSpec(t, sys, "DTM-CDVFS"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold["DTM-CDVFS"]) {
		t.Fatal("resume from installed record diverged from cold replay")
	}
	if st := s2.Stats(); st.Leaders != 0 || st.Resumed+st.Cold != 1 {
		t.Fatalf("installed group did not serve a follower: %+v", st)
	}
}

// TestLeaderErrorElectsFreshLeader: a failed leader must not poison the
// group — the next arrival leads again.
func TestLeaderErrorElectsFreshLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	sys := testSystem(t)
	s := prefix.New(sys)
	boom := errors.New("boom")
	if _, err := s.Run(context.Background(), "slice", func() (core.RunSpec, error) {
		return core.RunSpec{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	res, err := s.Run(context.Background(), "slice", func() (core.RunSpec, error) {
		return runSpec(t, sys, "DTM-TS"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Fatalf("degenerate re-led run: %+v", res)
	}
	if st := s.Stats(); st.Leaders != 2 {
		t.Fatalf("leaders = %d, want 2 (failed + fresh)", st.Leaders)
	}
}

// cancelAt wraps a policy and calls fn just before decision at, so a
// test can act in the middle of a run.
type cancelAt struct {
	dtm.Policy
	n, at int
	fn    func()
}

func (c *cancelAt) Decide(in dtm.Input) dtm.Action {
	if c.n == c.at {
		c.fn()
	}
	c.n++
	return c.Policy.Decide(in)
}

// TestCancelledLeaderHandsOff: when a group leader's client goes away
// mid-run, one live waiting sibling takes over the lead and the others
// follow it — none is demoted to a cold replay, and every result is
// bit-identical to its cold replay.
func TestCancelledLeaderHandsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	sys := testSystem(t)
	followers := []string{"DTM-BW", "DTM-ACG", "DTM-CDVFS"}
	cold := make(map[string]sim.MEMSpotResult, len(followers))
	for _, p := range followers {
		res, err := sys.RunCtx(context.Background(), runSpec(t, sys, p))
		if err != nil {
			t.Fatal(err)
		}
		cold[p] = res
	}

	// newRun resolves specs off the test goroutine, so it reports errors
	// instead of failing the test itself.
	mix, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	newRun := func(policy string) (core.RunSpec, error) {
		pol, err := sys.NewPolicyFor(policy, sys.Config().Limits)
		return core.RunSpec{Mix: mix, Policy: pol, Cooling: fbconfig.CoolingAOHS15}, err
	}

	s := prefix.New(sys)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leading := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, "slice", func() (core.RunSpec, error) {
			rs, err := newRun("DTM-TS")
			rs.Policy = &cancelAt{Policy: rs.Policy, at: 50, fn: func() {
				close(leading)
				for s.Waits() < int64(len(followers)) {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}}
			return rs, err
		})
		leaderErr <- err
	}()
	<-leading

	got := make([]sim.MEMSpotResult, len(followers))
	errs := make([]error, len(followers))
	var wg sync.WaitGroup
	for i, p := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Run(context.Background(), "slice", func() (core.RunSpec, error) {
				return newRun(p)
			})
		}()
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader err = %v, want context.Canceled", err)
	}
	wg.Wait()
	for i, p := range followers {
		if errs[i] != nil {
			t.Fatalf("%s inherited the leader's cancellation: %v", p, errs[i])
		}
		if !reflect.DeepEqual(got[i], cold[p]) {
			t.Fatalf("%s: result after hand-off diverged from cold replay", p)
		}
	}
	st := s.Stats()
	if st.Leaders != 2 || st.Cold != 0 {
		t.Fatalf("stats %+v, want 2 leaders (cancelled + hand-off) and 0 cold runs", st)
	}
	if st.FullReuse+st.Resumed != int64(len(followers))-1 {
		t.Fatalf("follower modes don't sum: %+v", st)
	}
}
