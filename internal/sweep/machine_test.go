package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/platform"
	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// stubL1 is a level-1 builder that returns fixed non-zero rates after a
// short sleep, counting its builds and how many were ever in flight at
// once. in, when set, also counts them into a shared gauge.
type stubL1 struct {
	gauge
	builds  atomic.Int64
	in      *gauge
	onBuild func() // called at the start of every build, when set
}

func (s *stubL1) Build(dp trace.DesignPoint) (trace.Rates, error) {
	s.builds.Add(1)
	if s.onBuild != nil {
		s.onBuild()
	}
	s.enter()
	defer s.leave()
	s.in.enter()
	defer s.in.leave()
	time.Sleep(10 * time.Millisecond)
	r := trace.Rates{Point: dp, PerApp: map[string]trace.AppRates{}}
	for _, dom := range strings.Split(dp.Apps, "/") {
		for _, a := range strings.Split(dom, "|") {
			if a != "" {
				r.PerApp[a] = trace.AppRates{
					InstrPerSec: 1e10 * dp.FreqGHz, IPCRef: 1, ReadGBps: 1.5,
					WriteGBps: 0.5, L2MissPerSec: 2e7, MemBoundFrac: 0.3,
				}
			}
		}
	}
	return r, nil
}

// gauge tracks a count in flight and its peak; a nil gauge is a no-op.
type gauge struct{ cur, peak atomic.Int64 }

func (g *gauge) enter() {
	if g == nil {
		return
	}
	n := g.cur.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *gauge) leave() {
	if g != nil {
		g.cur.Add(-1)
	}
}

// stubMachines gives both of e's testbeds one stub level-1 builder. The
// stores keep their real builder digests, so the records they persist
// replay into a real engine's testbed stores.
func stubMachines(e *Engine) *stubL1 {
	l1 := &stubL1{}
	for _, m := range testbeds {
		e.machineStore(m)
		d := platform.NewLevel1(m, e.sys.Config().Seed).Digest()
		e.stores[d] = trace.NewStore(l1)
		e.stores[d].SetOnBuild(func(r trace.Rates) { e.appendTrace(r, d) })
	}
	return l1
}

// machineBatch is a batch over both machines, planned policy-major so
// neighbouring specs run different programs and start with distinct
// level-1 builds.
func machineBatch(progs []*workload.Profile) []Spec {
	var specs []Spec
	for _, k := range []string{"No-limit", "DTM-ACG"} {
		for i, p := range progs {
			m := "PE1950"
			if i%2 == 1 {
				m = "SR1500AL"
			}
			specs = append(specs, Spec{Machine: m, Mix: p.Name + "x4", Policy: k, RunsPerApp: 1, InstrScale: 0.2})
		}
	}
	return specs
}

// TestMachineSweep checks a sweep of machine specs against one-at-a-time
// runs: results in input order, one run per distinct spec (a verbatim
// repeat and one spelling out a default share it) and at most W level-1
// builds, hence runs, in flight.
func TestMachineSweep(t *testing.T) {
	specs := machineBatch(workload.Suite2000()[:6])
	ref := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	stubMachines(ref)
	want := make([]sim.MEMSpotResult, len(specs))
	for i, sp := range specs {
		res, _, err := ref.Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, w := range []int{1, 2} {
		e := NewEngine(core.NewSystem(core.DefaultConfig()), w)
		l1 := stubMachines(e)
		dup := specs[3]
		dup.Quantum = 0.1
		batch := append(append([]Spec(nil), specs...), specs[0], dup)
		sw, err := e.Sweep(context.Background(), batch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sw.Results[:len(specs)], want) {
			t.Fatalf("width %d: sweep results differ from one-at-a-time runs in input order", w)
		}
		if !reflect.DeepEqual(sw.Results[len(specs)], want[0]) || !reflect.DeepEqual(sw.Results[len(specs)+1], want[3]) {
			t.Fatalf("width %d: repeated specs got different results", w)
		}
		if b := e.Stats().Builds; b != int64(len(specs)) {
			t.Fatalf("width %d: %d runs built for %d distinct specs", w, b, len(specs))
		}
		if p := l1.peak.Load(); p > int64(w) {
			t.Fatalf("width %d: %d level-1 builds in flight", w, p)
		}
	}
}

// TestMachineSweepsSharePool: two sweeps at once on one width-2 engine
// share its two slots.
func TestMachineSweepsSharePool(t *testing.T) {
	progs := workload.Suite2000()[:6]
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	l1 := stubMachines(e)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ps := range [][]*workload.Profile{progs[:3], progs[3:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Sweep(context.Background(), machineBatch(ps), Options{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := l1.peak.Load(); p != 2 {
		t.Fatalf("two concurrent sweeps on a width-2 engine peaked at %d level-1 builds, want 2", p)
	}
}

// TestMixedSweepLeaders: Chapter 4 simulations and platform runs share
// one pool, so a sweep mixing them never runs more than W at once.
func TestMixedSweepLeaders(t *testing.T) {
	const w = 2
	in := &gauge{}
	e := NewEngine(core.NewSystem(core.DefaultConfig()), w)
	e.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		in.enter()
		defer in.leave()
		time.Sleep(20 * time.Millisecond)
		return sim.MEMSpotResult{Seconds: 100, Completed: 1}, nil
	})
	stubMachines(e).in = in
	var specs []Spec
	for i, sp := range machineBatch(workload.Suite2000()[:4]) {
		specs = append(specs, sp, Spec{Mix: AllMixes()[i%8], Policy: "DTM-TS"})
	}
	if _, err := e.Sweep(context.Background(), specs, Options{}); err != nil {
		t.Fatal(err)
	}
	if p := in.peak.Load(); p > w {
		t.Fatalf("a mixed sweep had %d runs in flight on a width-%d pool", p, w)
	}
}

// TestMachineRunCancelled: a platform run notices a cancelled ctx within
// one DTM interval, returns ctx.Err() and caches nothing.
func TestMachineRunCancelled(t *testing.T) {
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	l1 := stubMachines(e)
	ctx, cancel := context.WithCancel(context.Background())
	l1.onBuild = cancel
	spec := Spec{Machine: "PE1950", Mix: "W1", Policy: "DTM-ACG", RunsPerApp: 1}
	if _, _, err := e.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled platform run returned %v, want context.Canceled", err)
	}
	if n := l1.builds.Load(); n != 1 {
		t.Fatalf("the cancelled run went on to %d level-1 builds, want 1", n)
	}
	l1.onBuild = nil
	if _, info, err := e.Run(context.Background(), spec); err != nil || info.Outcome != Built {
		t.Fatalf("rerun after cancel: outcome %v, err %v; want a fresh build", info.Outcome, err)
	}
}

// TestMachineReplay: a platform run and the level-1 records it built
// persist to the segment log and replay into a fresh engine with the
// real builders, which serves the run as a Hit and builds no record for
// a run over the same design points.
func TestMachineReplay(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Machine: "SR1500AL", Mix: "W2", Policy: "DTM-BW", RunsPerApp: 1, InstrScale: 0.2}
	a := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	if err := a.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	l1 := stubMachines(a)
	want, _, err := a.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	records := l1.builds.Load()
	ref := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	stubMachines(ref)
	prefix := spec
	prefix.MaxSeconds = 3 // the run's first three DTM intervals
	wantPrefix, _, err := ref.Run(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	if err := b.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if st, _ := b.StateStats(); st.SkippedTraces != 0 || st.SkippedRuns != 0 {
		t.Fatalf("replay skipped records: %+v", st)
	}
	got, info, err := b.Run(context.Background(), spec)
	if err != nil || info.Outcome != Hit || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed platform run: outcome %v, err %v, equal %v; want an identical Hit",
			info.Outcome, err, reflect.DeepEqual(got, want))
	}
	store := b.machineStore(platform.SR1500AL())
	if n := store.Len(); int64(n) != records {
		t.Fatalf("replay put %d level-1 records in the SR1500AL store, want %d", n, records)
	}
	got, info, err = b.Run(context.Background(), prefix)
	if err != nil || info.Outcome != Built || !reflect.DeepEqual(got, wantPrefix) {
		t.Fatalf("rebuilt prefix run: outcome %v, err %v, equal %v", info.Outcome, err, reflect.DeepEqual(got, wantPrefix))
	}
	if builds, _ := store.Counts(); builds != 0 {
		t.Fatalf("a run over replayed design points built %d level-1 records, want 0", builds)
	}
}

// TestLevel1RecordsCountsEveryStore: a level-1 record replayed into a
// testbed store counts among the engine's level-1 records, though the
// Chapter 4 store stays empty.
func TestLevel1RecordsCountsEveryStore(t *testing.T) {
	dir := t.TempDir()
	a := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	if err := a.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	digest := platform.NewLevel1(platform.PE1950(), a.System().Config().Seed).Digest()
	a.appendTrace(trace.Zero(trace.DesignPoint{Apps: "swim", FreqGHz: 3, BWCapGBps: 12.8}), digest)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	if err := b.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if n := b.Level1Records(); n != 1 {
		t.Fatalf("engine counts %d level-1 records after replaying one PE1950 record, want 1", n)
	}
	if n := b.System().Store().Len(); n != 0 {
		t.Fatalf("Chapter 4 store holds %d records, want 0", n)
	}
}

// TestMachineSpecValidation: machine specs take only their own fields
// and Chapter 5 policy names, and Chapter 4 specs take none of them.
func TestMachineSpecValidation(t *testing.T) {
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 1)
	ok := Spec{Machine: "PE1950", Mix: "swimx4", Policy: "DTM-COMB", Quantum: 0.02, Ambient: 30,
		ForceFreq: 3, RunsPerApp: 2, MaxSeconds: 500, Limits: fbconfig.ThermalLimits{AMBTDP: 88}}
	if err := e.Validate(ok); err != nil {
		t.Fatalf("valid machine spec rejected: %v", err)
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Machine: "PE2950", Mix: "W1"}, "unknown machine"},
		{Spec{Machine: "PE1950", Mix: "W1", Policy: "DTM-TS"}, "unknown policy"},
		{Spec{Machine: "PE1950", Mix: "W1", Cooling: "AOHS_1.5"}, "takes no cooling"},
		{Spec{Machine: "PE1950", Mix: "W1", Interval: 0.02}, "takes no cooling"},
		{Spec{Machine: "PE1950", Mix: "W1", Limits: fbconfig.ThermalLimits{AMBTDP: 90, AMBTRP: 89}}, "takes no cooling"},
		{Spec{Machine: "PE1950", Mix: "W1", ForceFreq: 4}, "force_freq"},
		{Spec{Machine: "PE1950", Mix: "W1", ForceFreq: -1}, "force_freq"},
		{Spec{Machine: "PE1950", Mix: "W1", RunsPerApp: -1}, "runs_per_app"},
		{Spec{Machine: "PE1950", Mix: "W1", RunsPerApp: maxRunsPerApp + 1}, "runs_per_app"},
		{Spec{Machine: "PE1950", Mix: "W1", Quantum: -0.1}, "quantum"},
		{Spec{Machine: "PE1950", Mix: "W1", InstrScale: -1}, "instr_scale"},
		{Spec{Mix: "W1", Quantum: 0.02}, "need a machine"},
		{Spec{Mix: "W1", RunsPerApp: 3}, "need a machine"},
	} {
		if err := e.Validate(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", c.spec, err, c.want)
		}
	}
	if _, err := e.Resolve(ok); err == nil {
		t.Error("Resolve bound a machine spec to a Chapter 4 run")
	}
}
