package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
)

// testEngine returns an engine whose run backend is a counting fake, so
// orchestration tests stay fast and can assert on build counts.
func testEngine(workers int, builds *atomic.Int64, delay time.Duration) *Engine {
	e := NewEngine(core.NewSystem(core.DefaultConfig()), workers)
	e.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		builds.Add(1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return sim.MEMSpotResult{}, ctx.Err()
		}
		secs := 100.0
		if rs.Policy.Name() != "No-limit" {
			secs = 150
		}
		return sim.MEMSpotResult{Seconds: secs, Completed: 1}, nil
	})
	return e
}

func TestEngineRejectsBadSpecs(t *testing.T) {
	var n atomic.Int64
	e := testEngine(1, &n, 0)
	for _, s := range []Spec{
		{Mix: "W99"},
		{Mix: "W1", Policy: "DTM-NOPE"},
		{Mix: "W1", Cooling: "WATERCOOLED"},
		{Mix: "W1", Model: "imaginary"},
		// Partial limits would be silently ignored by the simulator
		// while still keyed as distinct — must be rejected.
		{Mix: "W1", Limits: fbconfig.ThermalLimits{DRAMTRP: 81}},
		{Mix: "W1", Limits: fbconfig.ThermalLimits{AMBTDP: 110, DRAMTDP: 85}},
	} {
		if _, _, err := e.Run(context.Background(), s); err == nil {
			t.Errorf("spec %v accepted", s)
		}
	}
	if n.Load() != 0 {
		t.Fatalf("bad specs reached the backend %d times", n.Load())
	}
}

// TestEngineSweepDedup submits a grid with duplicated specs concurrently
// and asserts one backend run per unique key.
func TestEngineSweepDedup(t *testing.T) {
	var n atomic.Int64
	e := testEngine(8, &n, 2*time.Millisecond)
	grid := Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG"},
	}
	specs := grid.Expand() // 8 unique
	specs = append(specs, specs...)
	specs = append(specs, specs...) // 32 jobs, 8 unique

	var progress atomic.Int64
	res, err := e.Sweep(context.Background(), specs, Options{
		OnEvent: func(ev Event) {
			if ev.Kind == EventStarted {
				return
			}
			progress.Add(1)
			if ev.Total != len(specs) {
				t.Errorf("progress total %d, want %d", ev.Total, len(specs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 8 {
		t.Fatalf("backend ran %d times, want 8 (dedup failed)", n.Load())
	}
	if progress.Load() != int64(len(specs)) {
		t.Fatalf("progress fired %d times, want %d", progress.Load(), len(specs))
	}
	for i, r := range res.Results {
		want := 150.0
		if res.Specs[i].normalize().Policy == "No-limit" {
			want = 100
		}
		if r.Seconds != want {
			t.Fatalf("job %d: seconds=%v want %v", i, r.Seconds, want)
		}
	}
}

func TestEngineNormalized(t *testing.T) {
	var n atomic.Int64
	e := testEngine(4, &n, 0)
	res, err := e.Sweep(context.Background(),
		Grid{Mixes: []string{"W1"}, Policies: []string{"DTM-TS"}}.Expand(),
		Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Norms[0] != 1.5 {
		t.Fatalf("norm = %v, want 1.5", res.Norms[0])
	}
	// Table renders the normalized value.
	tab := res.Table("sweep")
	if !contains(tab.String(), "1.500") {
		t.Fatalf("table missing norm:\n%s", tab)
	}
}

// TestEngineSweepCancel cancels mid-sweep and checks prompt teardown.
func TestEngineSweepCancel(t *testing.T) {
	var n atomic.Int64
	e := testEngine(2, &n, 500*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := e.Sweep(ctx, Grid{Mixes: AllMixes(), Policies: []string{"No-limit", "DTM-TS"}}.Expand(), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

// TestEngineSweepPreCancelled: a sweep on a context that is already
// done runs nothing. Each leader finds a free pool slot and a dead
// context ready at once; select picks either, so without the ctx.Err()
// re-check after taking the slot about half the leaders would run.
func TestEngineSweepPreCancelled(t *testing.T) {
	var n atomic.Int64
	e := testEngine(4, &n, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := Grid{Mixes: AllMixes(), Policies: core.PolicyNames()}.Expand()
	if len(specs) < 64 {
		t.Fatalf("%d specs, want at least 64", len(specs))
	}
	if _, err := e.Sweep(ctx, specs, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("run function called %d times on a cancelled context, want 0", got)
	}
}

// TestEngineSweepFirstErrorCancels checks a failing job aborts the rest.
func TestEngineSweepFirstErrorCancels(t *testing.T) {
	e := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	boom := errors.New("boom")
	e.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if rs.Mix.Name == "W3" {
			return sim.MEMSpotResult{}, boom
		}
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
			return sim.MEMSpotResult{}, ctx.Err()
		}
		return sim.MEMSpotResult{Seconds: 1}, nil
	})
	start := time.Now()
	_, err := e.Sweep(context.Background(),
		Grid{Mixes: []string{"W1", "W2", "W3", "W4"}}.Expand(), Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("error propagation took %v", wall)
	}
}

// tinyConfig is a reduced-scale real-simulation configuration shared by
// the determinism test and benchmarks that need genuine runs.
func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Replicas = 1
	cfg.InstrScale = 0.01
	return cfg
}

// TestEngineMatchesSerialRun runs a real (reduced-scale) simulation
// through the engine and through core.System directly and asserts
// identical results — the engine must be a pure cache over the serial
// path.
func TestEngineMatchesSerialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	spec := Spec{Mix: "W1", Policy: "DTM-TS"}

	e := NewEngine(core.NewSystem(tinyConfig()), 2)
	got, _, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must be a cache hit sharing the identical value.
	again, _, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != again.Seconds || e.Stats().Builds != 1 {
		t.Fatalf("second run not served from cache (builds=%d)", e.Stats().Builds)
	}

	serial := core.NewSystem(tinyConfig())
	p, err := serial.NewPolicyFor("DTM-TS", serial.Config().Limits)
	if err != nil {
		t.Fatal(err)
	}
	mixRS, err := e.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.RunCtx(context.Background(), core.RunSpec{Mix: mixRS.Mix, Policy: p, Cooling: fbconfig.CoolingAOHS15, Model: core.Isolated})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.ReadGB != want.ReadGB || got.MaxAMB != want.MaxAMB {
		t.Fatalf("engine result diverges from serial run:\nengine %+v\nserial %+v", got, want)
	}
}

// TestEngineStatePersistence round-trips run cache + trace store through
// the segment log and checks a rerun does no new work.
func TestEngineStatePersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	dir := t.TempDir()
	spec := Spec{Mix: "W5"}
	e := NewEngine(core.NewSystem(tinyConfig()), 2)
	if err := e.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// No shutdown flush: records were appended as the run completed, so
	// closing is only a courtesy sync.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(core.NewSystem(tinyConfig()), 2)
	if err := e2.EnableSegmentLog(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.System().Store().Len() == 0 {
		t.Fatal("trace store state not restored")
	}
	got, _, err := e2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds {
		t.Fatalf("restored run differs: %v != %v", got.Seconds, want.Seconds)
	}
	if st := e2.Stats(); st.Builds != 0 || st.Hits != 1 {
		t.Fatalf("restored engine did new work: %+v", st)
	}
}

// TestRunCtxCancelled checks the simulation loop honours a pre-cancelled
// context without doing level-1 work.
func TestRunCtxCancelled(t *testing.T) {
	e := NewEngine(core.NewSystem(tinyConfig()), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Run(ctx, Spec{Mix: "W1"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
