package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
)

// fakeBatchBackend records every RunSpecs call and serves specs from a
// programmable function, standing in for the remote cluster backend.
type fakeBatchBackend struct {
	mu    sync.Mutex
	calls [][]Spec // specs of each RunSpecs invocation
	serve func(sp Spec) (sim.MEMSpotResult, RunInfo, error)
}

func (f *fakeBatchBackend) RunSpecs(ctx context.Context, specs []Spec, deliver func(int, sim.MEMSpotResult, RunInfo, error)) {
	f.mu.Lock()
	f.calls = append(f.calls, append([]Spec(nil), specs...))
	f.mu.Unlock()
	for i, sp := range specs {
		res, info, err := f.serve(sp)
		deliver(i, res, info, err)
	}
}

func peerServe(sp Spec) (sim.MEMSpotResult, RunInfo, error) {
	return sim.MEMSpotResult{Seconds: 100, Completed: 1}, RunInfo{Outcome: Built, Peer: "peer-1"}, nil
}

// TestSweepBatchesDistinctSpecs: a batched sweep hands the backend every
// distinct uncached spec in ONE RunSpecs call — duplicates join through
// the cache and already-cached specs are not re-dispatched — and events
// report the delivering peer.
func TestSweepBatchesDistinctSpecs(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(4, &builds, 0)
	fb := &fakeBatchBackend{serve: peerServe}
	e.SetBatchBackend(fb)

	// Warm the cache with one spec through Run: a shard of one.
	warm := Spec{Mix: "W2", Policy: "DTM-TS"}
	if _, _, err := e.Run(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	specs := []Spec{
		{Mix: "W1", Policy: "DTM-TS"},
		{Mix: "W1", Policy: "DTM-BW"},
		{Mix: "W1", Policy: "DTM-TS"}, // duplicate: must not be dispatched twice
		warm,                          // cached: must not be dispatched at all
	}
	var events []Event
	var mu sync.Mutex
	res, err := e.Sweep(context.Background(), specs, Options{OnEvent: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Kind != EventStarted {
			events = append(events, ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.calls) != 2 {
		t.Fatalf("RunSpecs called %d times, want 2 (the warmup, then the sweep)", len(fb.calls))
	}
	if got := fb.calls[0]; len(got) != 1 || got[0] != warm {
		t.Fatalf("warmup shard = %v, want just %v", got, warm)
	}
	if got := len(fb.calls[1]); got != 2 {
		t.Fatalf("batch carried %d specs, want 2 (distinct uncached): %v", got, fb.calls[1])
	}
	for i, r := range res.Results {
		if r.Seconds != 100 {
			t.Errorf("result %d: seconds = %v, want 100", i, r.Seconds)
		}
	}
	peers := map[string]int{}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("event error for %s: %v", ev.Spec, ev.Err)
		}
		peers[ev.Peer]++
	}
	// Two specs built on peer-1; the duplicate joins or hits locally
	// (empty peer) depending on timing; the warm spec hits (empty peer).
	if peers["peer-1"] != 2 {
		t.Errorf("peer-1 served %d finish events, want 2 (events: %+v)", peers["peer-1"], events)
	}
	if peers[""] != 2 {
		t.Errorf("local cache served %d finish events, want 2 (events: %+v)", peers[""], events)
	}
}

// TestSweepBatchLocalFallback: an ErrRunLocal delivery makes the engine
// execute the spec on its own pool and report it as served locally.
func TestSweepBatchLocalFallback(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	fb := &fakeBatchBackend{serve: func(sp Spec) (sim.MEMSpotResult, RunInfo, error) {
		return sim.MEMSpotResult{}, RunInfo{}, ErrRunLocal
	}}
	e.SetBatchBackend(fb)

	specs := []Spec{{Mix: "W1", Policy: "DTM-TS"}, {Mix: "W1", Policy: "DTM-BW"}}
	var mu sync.Mutex
	peers := map[string]int{}
	res, err := e.Sweep(context.Background(), specs, Options{OnEvent: func(ev Event) {
		if ev.Kind == EventFinished {
			mu.Lock()
			peers[ev.Peer]++
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Errorf("local builds = %d, want 2", builds.Load())
	}
	if peers["local"] != 2 {
		t.Errorf("peer counts = %v, want 2 local", peers)
	}
	for i, r := range res.Results {
		if r.Seconds != 150 {
			t.Errorf("result %d: seconds = %v, want 150 (locally simulated)", i, r.Seconds)
		}
	}
}

// TestSweepBatchTerminalError: a delivered terminal error fails the
// sweep, like a failed run on the unbatched path.
func TestSweepBatchTerminalError(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	boom := errors.New("poisoned spec")
	fb := &fakeBatchBackend{serve: func(sp Spec) (sim.MEMSpotResult, RunInfo, error) {
		if sp.Policy == "DTM-BW" {
			return sim.MEMSpotResult{}, RunInfo{}, boom
		}
		return peerServe(sp)
	}}
	e.SetBatchBackend(fb)

	_, err := e.Sweep(context.Background(), []Spec{
		{Mix: "W1", Policy: "DTM-TS"}, {Mix: "W1", Policy: "DTM-BW"},
	}, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want %v", err, boom)
	}
	if builds.Load() != 0 {
		t.Errorf("local builds = %d, want 0 (terminal errors must not fall back)", builds.Load())
	}
}

// TestSweepBatchResultsCached: batch deliveries populate the run cache,
// so a repeat sweep is served entirely locally with no new dispatch.
func TestSweepBatchResultsCached(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	fb := &fakeBatchBackend{serve: peerServe}
	e.SetBatchBackend(fb)

	specs := []Spec{{Mix: "W1", Policy: "DTM-TS"}, {Mix: "W1", Policy: "DTM-BW"}}
	if _, err := e.Sweep(context.Background(), specs, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sweep(context.Background(), specs, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(fb.calls) != 1 {
		t.Fatalf("RunSpecs called %d times across two sweeps, want 1 (second sweep all cache hits)", len(fb.calls))
	}
}

// TestSweepBatchNormalize: a normalized sweep plans the No-limit
// baselines into the same batch (deduplicated per mix), never
// dispatching a shard per baseline, and the normalized values come out
// right.
func TestSweepBatchNormalize(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(4, &builds, 0)
	fb := &fakeBatchBackend{serve: func(sp Spec) (sim.MEMSpotResult, RunInfo, error) {
		secs := 100.0 // No-limit baseline
		if sp.Policy != "No-limit" && sp.Policy != "" {
			secs = 150
		}
		return sim.MEMSpotResult{Seconds: secs, Completed: 1}, RunInfo{Outcome: Built, Peer: "peer-1"}, nil
	}}
	e.SetBatchBackend(fb)

	res, err := e.Sweep(context.Background(), []Spec{
		{Mix: "W1", Policy: "DTM-TS"}, {Mix: "W1", Policy: "DTM-BW"},
	}, Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Norms {
		if want := 1.5; res.Norms[i] != want {
			t.Errorf("norm %d = %v, want %v", i, res.Norms[i], want)
		}
	}
	// Two specs plus ONE shared W1 baseline, all in the single batch.
	if len(fb.calls) != 1 {
		t.Fatalf("RunSpecs called %d times, want 1 (baselines must ride the batch)", len(fb.calls))
	}
	if got := len(fb.calls[0]); got != 3 {
		t.Errorf("batch carried %d specs, want 3 (2 specs + 1 deduplicated baseline): %v", got, fb.calls[0])
	}
}

// TestSweepBatchIdenticalTable: the batched and unbatched paths produce
// byte-identical report tables for the same grid.
func TestSweepBatchIdenticalTable(t *testing.T) {
	grid := Grid{Mixes: []string{"W1", "W2"}, Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG"}}
	specs := grid.Expand()

	runFake := func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{Seconds: float64(10*len(rs.Mix.Name) + len(rs.Policy.Name())), Completed: 1}, nil
	}
	plain := NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	plain.SetRunFunc(runFake)
	ref, err := plain.Sweep(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	exec := NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	exec.SetRunFunc(runFake)
	batched := NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	batched.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{}, fmt.Errorf("the coordinator must not simulate")
	})
	fb := &fakeBatchBackend{serve: func(sp Spec) (sim.MEMSpotResult, RunInfo, error) {
		res, err := exec.Exec(context.Background(), sp)
		return res, RunInfo{Outcome: Built, Peer: "peer-1"}, err
	}}
	batched.SetBatchBackend(fb)
	got, err := batched.Sweep(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if a, b := ref.Table("t").String(), got.Table("t").String(); a != b {
		t.Fatalf("tables differ:\n--- plain ---\n%s--- batched ---\n%s", a, b)
	}
}

// TestBatchLocalFallbackSharesPrefixes: specs a batch backend hands back
// with ErrRunLocal run through the same leader body as local cache
// misses — prefix sharing included — and still match a cold engine
// field for field.
func TestBatchLocalFallbackSharesPrefixes(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation skipped in -short mode")
	}
	specs := Grid{Mixes: []string{"W1"}, Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG"}}.Expand()
	sys := core.NewSystem(tinyConfig())
	want, err := NewEngine(sys, 2).Sweep(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(sys, 2)
	e.EnablePrefixSharing()
	e.SetBatchBackend(&fakeBatchBackend{serve: func(Spec) (sim.MEMSpotResult, RunInfo, error) {
		return sim.MEMSpotResult{}, RunInfo{}, ErrRunLocal
	}})
	got, err := e.Sweep(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := e.PrefixStats(); st.Leaders == 0 {
		t.Errorf("prefix stats %+v: local fallbacks bypassed the sharer", st)
	}
	for i, sp := range specs {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Errorf("%s: fallback result differs from cold replay:\n got %+v\nwant %+v", sp, got.Results[i], want.Results[i])
		}
	}
}

// blockingBackend never delivers: RunSpecs returns once ctx is done.
type blockingBackend struct{ called chan struct{} }

func (b blockingBackend) RunSpecs(ctx context.Context, _ []Spec, _ func(int, sim.MEMSpotResult, RunInfo, error)) {
	close(b.called)
	<-ctx.Done()
}

// TestBatchRunCancelledBeforeDelivery: Run on a batch-backed engine
// sends its spec as a shard of one, and when the caller cancels before
// the backend delivers, Run returns the context's error instead of a
// result or a local fallback.
func TestBatchRunCancelledBeforeDelivery(t *testing.T) {
	var builds atomic.Int64
	e := testEngine(2, &builds, 0)
	bb := blockingBackend{called: make(chan struct{})}
	e.SetBatchBackend(bb)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-bb.called
		cancel()
	}()
	_, _, err := e.Run(ctx, Spec{Mix: "W1", Policy: "DTM-TS"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if builds.Load() != 0 {
		t.Errorf("local builds = %d, want 0", builds.Load())
	}
}
