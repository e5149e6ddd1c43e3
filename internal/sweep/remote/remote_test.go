package remote_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// fakeEngine returns an engine whose run function is a counting fake,
// so cluster tests exercise routing and failover without paying for
// real simulations. All fakeEngines share one config digest, so keys
// line up across coordinator and workers.
func fakeEngine(builds *atomic.Int64, delay time.Duration) *sweep.Engine {
	e := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	e.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if builds != nil {
			builds.Add(1)
		}
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

// fakeWorker embeds a full dramthermd (httpapi over a fake engine).
func fakeWorker(t *testing.T, builds *atomic.Int64, delay time.Duration) *httptest.Server {
	t.Helper()
	api := httpapi.New(context.Background(), fakeEngine(builds, delay), httpapi.Config{})
	t.Cleanup(api.Close)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts
}

func newBackend(t *testing.T, coord *sweep.Engine, cfg remote.Config) *remote.Backend {
	t.Helper()
	if cfg.Key == nil {
		cfg.Key = coord.Key
	}
	b, err := remote.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// TestPeerDownAtSubmit: the owning peer is already dead when the run is
// submitted — it must fail over to the live peer and eject the corpse.
func TestPeerDownAtSubmit(t *testing.T) {
	var workerBuilds atomic.Int64
	live := fakeWorker(t, &workerBuilds, 0)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a peer that is down from the start

	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "dead", URL: dead.URL}, {ID: "live", URL: live.URL}},
	})
	coord.SetBatchBackend(b)

	// Sweep enough specs that the dead peer owns at least one shard.
	specs := sweep.Grid{Mixes: []string{"W1", "W2", "W3", "W4", "W5", "W6"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG"}}.Expand()
	owned := 0
	for _, s := range specs {
		if b.OwnerOf(s) == "dead" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("test needs the dead peer to own at least one shard")
	}
	var deadServed atomic.Int64
	res, err := coord.Sweep(context.Background(), specs, sweep.Options{
		OnEvent: func(ev sweep.Event) {
			if ev.Kind == sweep.EventFinished && ev.Peer == "dead" {
				deadServed.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep with a dead peer: %v", err)
	}
	for i, r := range res.Results {
		if r.Seconds != 150 {
			t.Fatalf("spec %d: Seconds = %v, want 150", i, r.Seconds)
		}
	}
	if deadServed.Load() != 0 {
		t.Fatalf("%d specs reported as served by the dead peer", deadServed.Load())
	}
	if workerBuilds.Load() == 0 {
		t.Fatal("live worker built nothing — failover never reached it")
	}
	for _, ps := range b.Status() {
		if ps.ID == "dead" {
			if ps.Up {
				t.Fatal("dead peer still admitted after failing")
			}
			if ps.DownSince == nil || ps.LastError == "" {
				t.Fatalf("dead peer status lacks diagnostics: %+v", ps)
			}
		}
	}
}

// TestPeerDiesMidSweep: a worker is killed while its shard is in
// flight; failover must rerun those specs elsewhere and the sweep must
// still produce results identical to a single-node run.
func TestPeerDiesMidSweep(t *testing.T) {
	apiA := httpapi.New(context.Background(), fakeEngine(nil, 100*time.Millisecond), httpapi.Config{})
	defer apiA.Close()
	victim := httptest.NewServer(apiA)
	defer victim.Close()
	survivor := fakeWorker(t, nil, 0)

	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "victim", URL: victim.URL}, {ID: "survivor", URL: survivor.URL}},
	})
	coord.SetBatchBackend(b)

	specs := sweep.Grid{Mixes: []string{"W1", "W2", "W3", "W4"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG"}}.Expand()
	owned := false
	for _, s := range specs {
		if b.OwnerOf(s) == "victim" {
			owned = true
		}
	}
	if !owned {
		t.Fatal("test needs the victim to own at least one shard")
	}

	// Kill the victim once the first spec starts: its in-flight batch
	// request (the victim's fake sims take 100ms) die mid-simulation
	// and must be rerun on the survivor or locally.
	started := make(chan struct{}, 1)
	go func() {
		<-started
		victim.CloseClientConnections()
		victim.Close()
	}()
	res, err := coord.Sweep(context.Background(), specs, sweep.Options{
		OnEvent: func(ev sweep.Event) {
			if ev.Kind == sweep.EventStarted {
				select {
				case started <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep across a dying peer: %v", err)
	}
	for i, r := range res.Results {
		if r.Seconds != 150 {
			t.Fatalf("spec %d: Seconds = %v, want 150", i, r.Seconds)
		}
	}
	for _, ps := range b.Status() {
		if ps.ID == "victim" && ps.Up {
			t.Fatal("victim still admitted — the mid-sweep kill never hit it")
		}
	}
}

// TestLocalFallbackWhenRingEmpty: no peers at all → every run executes
// locally and is attributed to the "local" pseudo-peer.
func TestLocalFallbackWhenRingEmpty(t *testing.T) {
	var localBuilds atomic.Int64
	coord := fakeEngine(&localBuilds, 0)
	b := newBackend(t, coord, remote.Config{})
	coord.SetBatchBackend(b)

	res, info, err := coord.Run(context.Background(), sweep.Spec{Mix: "W1", Policy: "DTM-TS"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Peer != "local" || info.Outcome != sweep.Built {
		t.Fatalf("info = %+v, want local build", info)
	}
	if res.Seconds != 150 || localBuilds.Load() != 1 {
		t.Fatalf("local fallback did not execute (res=%v builds=%d)", res.Seconds, localBuilds.Load())
	}
}

// TestClientErrorDoesNotFailOver: a 4xx means the spec itself is bad —
// the error must surface, no other peer or the local engine should be
// tried, and the peer must stay in the ring.
func TestClientErrorDoesNotFailOver(t *testing.T) {
	worker := fakeWorker(t, nil, 0)
	var localBuilds atomic.Int64
	coord := fakeEngine(&localBuilds, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "w", URL: worker.URL}},
	})

	// Dispatch a bad spec straight at the backend: the engine's own
	// validation would otherwise reject it before routing.
	var err error
	b.RunSpecs(context.Background(), []sweep.Spec{{Mix: "W1", Policy: "DTM-NOPE"}},
		func(_ int, _ sim.MEMSpotResult, _ sweep.RunInfo, e error) { err = e })
	if err == nil || errors.Is(err, sweep.ErrRunLocal) || !strings.Contains(err.Error(), "rejected batch") {
		t.Fatalf("err = %v, want a peer rejection", err)
	}
	if localBuilds.Load() != 0 {
		t.Fatal("4xx fell back to local execution")
	}
	if ps := b.Status(); !ps[0].Up {
		t.Fatalf("peer ejected on a client error: %+v", ps[0])
	}
}

// TestRunErrorIsTerminal: a spec that fails deterministically (an
// error line on the worker's batch stream) must surface as an error
// without ejecting the healthy peer, without trying other peers, and
// without a local rerun — one poisoned spec must not empty the ring.
func TestRunErrorIsTerminal(t *testing.T) {
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{}, fmt.Errorf("synthetic trace-store corruption")
	})
	api := httpapi.New(context.Background(), eng, httpapi.Config{Logf: func(string, ...any) {}})
	defer api.Close()
	worker := httptest.NewServer(api)
	defer worker.Close()

	var localBuilds atomic.Int64
	coord := fakeEngine(&localBuilds, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "w", URL: worker.URL}},
	})
	coord.SetBatchBackend(b)

	_, _, err := coord.Run(context.Background(), sweep.Spec{Mix: "W1", Policy: "DTM-TS"})
	if err == nil || !strings.Contains(err.Error(), "run failed on peer w") ||
		!strings.Contains(err.Error(), "synthetic trace-store corruption") {
		t.Fatalf("err = %v, want a terminal run failure naming the peer", err)
	}
	if localBuilds.Load() != 0 {
		t.Fatal("failing run was retried locally")
	}
	if ps := b.Status(); !ps[0].Up {
		t.Fatalf("healthy peer ejected over a failing spec: %+v", ps[0])
	}
}

// TestEjectReadmitFakeClock drives the ring's ejection lifecycle on a
// fake clock: a failure ejects the peer, routing avoids it while the
// backoff runs, and backoff expiry readmits it half-open.
func TestEjectReadmitFakeClock(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := &now

	// A worker that fails on demand.
	var failing atomic.Bool
	var batches atomic.Int64
	inner := httpapi.New(context.Background(), fakeEngine(nil, 0), httpapi.Config{})
	defer inner.Close()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == remote.BatchPath {
			batches.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer worker.Close()

	var localBuilds atomic.Int64
	coord := fakeEngine(&localBuilds, 0)
	b := newBackend(t, coord, remote.Config{
		Peers:   []remote.Peer{{ID: "w", URL: worker.URL}},
		Backoff: time.Minute,
		Now:     func() time.Time { return *clock },
	})
	coord.SetBatchBackend(b)

	// Each step runs a fresh spec, so the coordinator's own cache never
	// answers in the backend's place.
	spec := func(policy string) sweep.Spec { return sweep.Spec{Mix: "W1", Policy: policy} }

	// 1. Failure ejects.
	failing.Store(true)
	if _, info, err := coord.Run(context.Background(), spec("DTM-TS")); err != nil || info.Peer != "local" {
		t.Fatalf("failing peer: info=%+v err=%v, want local fallback", info, err)
	}
	if st := b.Status()[0]; st.Up || st.DownSince == nil {
		t.Fatalf("peer not ejected: %+v", st)
	}

	// 2. While the backoff runs, routing skips the peer entirely even
	// though it has recovered.
	failing.Store(false)
	now = now.Add(30 * time.Second)
	if _, info, _ := coord.Run(context.Background(), spec("DTM-BW")); info.Peer != "local" {
		t.Fatalf("run during backoff served by %q, want local", info.Peer)
	}
	if batches.Load() != 0 {
		t.Fatal("ejected peer received traffic during its backoff")
	}

	// 3. Backoff expiry readmits half-open: the next run routes to the
	// peer again.
	now = now.Add(31 * time.Second)
	if _, info, err := coord.Run(context.Background(), spec("DTM-ACG")); err != nil || info.Peer != "w" {
		t.Fatalf("after backoff: info=%+v err=%v, want peer w", info, err)
	}
	if st := b.Status()[0]; !st.Up {
		t.Fatalf("peer not readmitted after backoff: %+v", st)
	}
}

// TestRemoteOutcomeAndPeerFlowIntoEvents: a warm worker cache must
// surface as outcome "hit" with the peer id on the coordinator's finish
// events — through the engine, job log and all.
func TestRemoteOutcomeAndPeerFlowIntoEvents(t *testing.T) {
	worker := fakeWorker(t, nil, 0)
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "w1", URL: worker.URL}},
	})
	coord.SetBatchBackend(b)
	spec := sweep.Spec{Mix: "W1", Policy: "DTM-TS"}

	var evs []sweep.Event
	if _, err := coord.Sweep(context.Background(), []sweep.Spec{spec}, sweep.Options{OnEvent: func(ev sweep.Event) {
		evs = append(evs, ev)
	}}); err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	if last.Kind != sweep.EventFinished || last.Peer != "w1" || last.Outcome != sweep.Built {
		t.Fatalf("cold run event = %+v, want finished/built on w1", last)
	}

	// A second coordinator shares the worker: the worker's cache is warm
	// now, so the run must come back as a remote hit.
	coord2 := fakeEngine(nil, 0)
	b2 := newBackend(t, coord2, remote.Config{
		Peers: []remote.Peer{{ID: "w1", URL: worker.URL}},
	})
	coord2.SetBatchBackend(b2)
	_, info, err := coord2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != sweep.Hit || info.Peer != "w1" {
		t.Fatalf("warm run info = %+v, want hit on w1", info)
	}

	// The coordinator's own cache hit wins on a repeat: no peer involved.
	_, info, err = coord2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != sweep.Hit || info.Peer != "" {
		t.Fatalf("local cache hit info = %+v, want hit with no peer", info)
	}
}
