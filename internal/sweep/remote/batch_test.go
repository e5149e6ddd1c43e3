package remote_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// countingWorker is an embedded dramthermd that counts exec requests by
// endpoint and whose simulations can be frozen (to stage a mid-stream
// death deterministically).
type countingWorker struct {
	ts      *httptest.Server
	api     *httpapi.Server
	execs   atomic.Int64
	batches atomic.Int64
	frozen  atomic.Bool
	gotRun  chan struct{} // closed on the first frozen run
	once    sync.Once
	kill    func()
}

func newCountingWorker(t *testing.T) *countingWorker {
	t.Helper()
	w := &countingWorker{gotRun: make(chan struct{})}
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if w.frozen.Load() {
			w.once.Do(func() { close(w.gotRun) })
			<-ctx.Done() // hold the stream open until the worker is killed
			return sim.MEMSpotResult{}, ctx.Err()
		}
		secs := 100.0
		if rs.Policy.Name() != "No-limit" {
			secs = 150
		}
		return sim.MEMSpotResult{Seconds: secs, Completed: 1}, nil
	})
	w.api = httpapi.New(context.Background(), eng, httpapi.Config{Logf: func(string, ...any) {}})
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case remote.ExecPath:
			w.execs.Add(1)
		case remote.BatchPath:
			w.batches.Add(1)
		}
		w.api.ServeHTTP(rw, r)
	}))
	var killOnce sync.Once
	w.kill = func() {
		killOnce.Do(func() {
			w.ts.CloseClientConnections()
			w.ts.Close()
			w.api.Close()
		})
	}
	t.Cleanup(w.kill)
	return w
}

// singleNodeTable sweeps specs on one plain fake engine — the reference
// every cluster run must reproduce byte-for-byte.
func singleNodeTable(t *testing.T, specs []sweep.Spec) string {
	t.Helper()
	res, err := fakeEngine(nil, 0).Sweep(context.Background(), specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Table("t").String()
}

// TestBatchedSweepOneRequestPerPeer is the batched dispatch acceptance
// test: a multi-peer sweep costs exactly one /v1/exec/batch request per
// live peer that owns a shard — never one request per spec — and the
// report table is byte-identical to single-node execution.
func TestBatchedSweepOneRequestPerPeer(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()

	workers := []*countingWorker{newCountingWorker(t), newCountingWorker(t), newCountingWorker(t)}
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{
		{ID: "w0", URL: workers[0].ts.URL},
		{ID: "w1", URL: workers[1].ts.URL},
		{ID: "w2", URL: workers[2].ts.URL},
	}})
	coord.SetBatchBackend(b)

	// The plan tells us which peers own a shard of this grid.
	owners := map[string]bool{}
	for _, sh := range b.PlanShards(specs) {
		if sh.Peer != "" {
			owners[sh.Peer] = true
		}
	}
	if len(owners) < 2 {
		t.Fatalf("grid of %d specs landed on %d peers; want a multi-peer spread", len(specs), len(owners))
	}

	res, err := coord.Sweep(context.Background(), specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table("t").String(), singleNodeTable(t, specs); got != want {
		t.Fatalf("batched table differs from single-node:\n--- single ---\n%s--- batched ---\n%s", want, got)
	}
	for i, w := range workers {
		id := []string{"w0", "w1", "w2"}[i]
		wantBatches := int64(0)
		if owners[id] {
			wantBatches = 1
		}
		if got := w.batches.Load(); got != wantBatches {
			t.Errorf("%s served %d batch requests, want %d", id, got, wantBatches)
		}
		if got := w.execs.Load(); got != 0 {
			t.Errorf("%s served %d single-exec requests, want 0", id, got)
		}
	}
}

// TestBatchedSweepMidStreamKill: a peer that dies mid-stream acks
// nothing; its whole shard re-plans onto the surviving ring in one more
// batch request, and the table still comes out byte-identical.
func TestBatchedSweepMidStreamKill(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()

	victim, survivor := newCountingWorker(t), newCountingWorker(t)
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{
			{ID: "victim", URL: victim.ts.URL},
			{ID: "survivor", URL: survivor.ts.URL},
		},
	})
	coord.SetBatchBackend(b)

	victimOwns, survivorOwns := false, false
	for _, sh := range b.PlanShards(specs) {
		switch sh.Peer {
		case "victim":
			victimOwns = true
		case "survivor":
			survivorOwns = true
		}
	}
	if !victimOwns {
		t.Fatalf("victim owns no shard of this grid; pick a bigger grid")
	}

	// Freeze the victim: its first simulation holds its batch stream open
	// (nothing acked), then the kill truncates it.
	victim.frozen.Store(true)
	go func() {
		select {
		case <-victim.gotRun:
		case <-time.After(10 * time.Second):
		}
		victim.kill()
	}()

	res, err := coord.Sweep(context.Background(), specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table("t").String(), singleNodeTable(t, specs); got != want {
		t.Fatalf("failover table differs from single-node:\n--- single ---\n%s--- failover ---\n%s", want, got)
	}
	if got := victim.batches.Load(); got != 1 {
		t.Errorf("victim served %d batch requests, want 1 (the one that died)", got)
	}
	wantSurvivor := int64(1) // the failover re-plan
	if survivorOwns {
		wantSurvivor = 2 // its own shard first
	}
	if got := survivor.batches.Load(); got != wantSurvivor {
		t.Errorf("survivor served %d batch requests, want %d", got, wantSurvivor)
	}
	if got := victim.execs.Load() + survivor.execs.Load(); got != 0 {
		t.Errorf("cluster served %d single-exec requests, want 0 in batched mode", got)
	}
}

// newStubWorker is an embedded dramthermd with a constant-result run
// function whose HTTP front counts exec requests by endpoint. A nonzero
// batchStatus makes its batch route answer with that status instead.
func newStubWorker(t *testing.T, cfg httpapi.Config, batchStatus int) *countingWorker {
	t.Helper()
	w := &countingWorker{gotRun: make(chan struct{})}
	eng := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		secs := 100.0
		if rs.Policy.Name() != "No-limit" {
			secs = 150
		}
		return sim.MEMSpotResult{Seconds: secs, Completed: 1}, nil
	})
	cfg.Logf = func(string, ...any) {}
	w.api = httpapi.New(context.Background(), eng, cfg)
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case remote.ExecPath:
			w.execs.Add(1)
		case remote.BatchPath:
			w.batches.Add(1)
			if batchStatus != 0 {
				http.Error(rw, http.StatusText(batchStatus), batchStatus)
				return
			}
		}
		w.api.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { w.ts.Close(); w.api.Close() })
	return w
}

// TestBatchFallbackToSingles: a healthy peer whose MaxBatch is smaller
// than its shard (413) gets the shard split in halves, down to one spec
// per batch request, instead of failing the sweep or being ejected — and
// never sees a /v1/exec request.
func TestBatchFallbackToSingles(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()
	// tiny accepts at most one spec per batch, so any real shard 413s.
	tiny := newStubWorker(t, httpapi.Config{MaxBatch: 1}, 0)

	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{{ID: "tiny", URL: tiny.ts.URL}}})
	coord.SetBatchBackend(b)

	res, err := coord.Sweep(context.Background(), specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table("t").String(), singleNodeTable(t, specs); got != want {
		t.Fatalf("fallback table differs from single-node:\n--- single ---\n%s--- fallback ---\n%s", want, got)
	}
	// Halving a shard of n down to single specs costs 2n-1 requests: the
	// whole shard, every intermediate half and n one-spec batches.
	if got, want := tiny.batches.Load(), int64(2*len(specs)-1); got != want {
		t.Errorf("batch requests = %d, want %d", got, want)
	}
	if got := tiny.execs.Load(); got != 0 {
		t.Errorf("peer served %d single-exec requests, want 0", got)
	}
	if st := b.Status()[0]; !st.Up {
		t.Errorf("peer %s was ejected; a peer over its batch limit must stay in the ring", st.ID)
	}
}

// TestForeignKeyEjectsPeer: a worker that keys specs under another
// configuration (here a different batch depth, so another ConfigDigest)
// ran other runs than the coordinator asked for. Its first line is a
// protocol error: the peer is ejected, the shard fails over (to the
// coordinator, the ring being empty), and none of its results is cached.
func TestForeignKeyEjectsPeer(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW"},
	}.Expand()
	cfg := core.DefaultConfig()
	cfg.Replicas++
	eng := sweep.NewEngine(core.NewSystem(cfg), 4)
	eng.SetRunFunc(func(context.Context, core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{Seconds: 999, Completed: 1}, nil
	})
	api := httpapi.New(context.Background(), eng, httpapi.Config{Logf: func(string, ...any) {}})
	t.Cleanup(api.Close)
	w := httptest.NewServer(api)
	t.Cleanup(w.Close)

	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{{ID: "w", URL: w.URL}}})
	coord.SetBatchBackend(b)
	var mu sync.Mutex
	peers := map[string]int{}
	res, err := coord.Sweep(context.Background(), specs, sweep.Options{OnEvent: func(ev sweep.Event) {
		if ev.Kind == sweep.EventFinished {
			mu.Lock()
			peers[ev.Peer]++
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table("t").String(), singleNodeTable(t, specs); got != want {
		t.Fatalf("table holds the foreign peer's results:\n--- single ---\n%s--- got ---\n%s", want, got)
	}
	if peers["local"] != len(specs) {
		t.Errorf("runs served by %v, want all %d local", peers, len(specs))
	}
	if st := b.Status()[0]; st.Up {
		t.Errorf("peer %s keying specs under another config is still up", st.ID)
	}
}

// TestBatchRoute404IsTerminal: a healthy peer whose batch route 404s
// rejected the batch — every spec of its shard gets a terminal error
// (no retry, no local fallback) and the peer stays in the ring.
func TestBatchRoute404IsTerminal(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW"},
	}.Expand()
	w := newStubWorker(t, httpapi.Config{}, http.StatusNotFound)
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{{ID: "w", URL: w.ts.URL}}})

	errs := make([]error, len(specs))
	var delivered atomic.Int64
	b.RunSpecs(context.Background(), specs, func(i int, _ sim.MEMSpotResult, _ sweep.RunInfo, err error) {
		errs[i] = err
		delivered.Add(1)
	})
	if got := delivered.Load(); got != int64(len(specs)) {
		t.Fatalf("delivered %d outcomes, want %d", got, len(specs))
	}
	for i, err := range errs {
		if err == nil || errors.Is(err, sweep.ErrRunLocal) || !strings.Contains(err.Error(), "rejected batch") {
			t.Errorf("spec %d: err = %v, want a terminal rejected-batch error", i, err)
		}
	}
	if got := w.execs.Load(); got != 0 {
		t.Errorf("peer served %d single-exec requests, want 0", got)
	}
	if st := b.Status()[0]; !st.Up {
		t.Errorf("peer %s was ejected; a rejected batch must not eject a healthy peer", st.ID)
	}
}

// TestOneSpecOverBatchLimitIsTerminal: a 413 on a one-spec shard has
// nothing left to split — the spec fails with a terminal error, and the
// peer stays in the ring.
func TestOneSpecOverBatchLimitIsTerminal(t *testing.T) {
	specs := []sweep.Spec{{Mix: "W1", Policy: "DTM-TS"}, {Mix: "W1", Policy: "DTM-BW"}}
	w := newStubWorker(t, httpapi.Config{}, http.StatusRequestEntityTooLarge)
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{{ID: "w", URL: w.ts.URL}}})

	errs := make([]error, len(specs))
	b.RunSpecs(context.Background(), specs, func(i int, _ sim.MEMSpotResult, _ sweep.RunInfo, err error) {
		errs[i] = err
	})
	for i, err := range errs {
		if err == nil || errors.Is(err, sweep.ErrRunLocal) || !strings.Contains(err.Error(), "rejected batch") {
			t.Errorf("spec %d: err = %v, want a terminal rejected-batch error", i, err)
		}
	}
	// The pair, then each half.
	if got := w.batches.Load(); got != 3 {
		t.Errorf("batch requests = %d, want 3", got)
	}
	if st := b.Status()[0]; !st.Up {
		t.Errorf("peer %s was ejected; a peer over its batch limit must stay in the ring", st.ID)
	}
}

// TestCoordinatorRunIsOneBatchRequest: a single Engine.Run on a
// coordinator is a shard of one — exactly one /v1/exec/batch request
// and no /v1/exec — served and attributed like any batched spec.
func TestCoordinatorRunIsOneBatchRequest(t *testing.T) {
	w := newCountingWorker(t)
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{{ID: "w", URL: w.ts.URL}}})
	coord.SetBatchBackend(b)

	res, info, err := coord.Run(context.Background(), sweep.Spec{Mix: "W1", Policy: "DTM-TS"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds != 150 || info.Peer != "w" || info.Outcome != sweep.Built {
		t.Fatalf("run = %v s, info %+v; want 150 s built on w", res.Seconds, info)
	}
	if got := w.batches.Load(); got != 1 {
		t.Errorf("batch requests = %d, want 1", got)
	}
	if got := w.execs.Load(); got != 0 {
		t.Errorf("single-exec requests = %d, want 0", got)
	}
}

// TestPlanShards: the plan covers every spec exactly once, groups by the
// routing ring's owner, and an empty ring collects everything under the
// local shard.
func TestPlanShards(t *testing.T) {
	specs := sweep.Grid{
		Mixes:    []string{"W1", "W2", "W3"},
		Policies: []string{"DTM-TS", "DTM-BW"},
	}.Expand()
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{Peers: []remote.Peer{
		{ID: "a", URL: "http://unused-a"},
		{ID: "b", URL: "http://unused-b"},
	}})

	seen := make(map[int]bool)
	for _, sh := range b.PlanShards(specs) {
		if sh.Peer == "" {
			t.Errorf("live ring produced a local shard: %+v", sh)
		}
		for _, i := range sh.Indexes {
			if seen[i] {
				t.Errorf("spec %d planned twice", i)
			}
			seen[i] = true
			if owner := b.OwnerOf(specs[i]); owner != sh.Peer {
				t.Errorf("spec %d planned on %s but owned by %s", i, sh.Peer, owner)
			}
		}
	}
	if len(seen) != len(specs) {
		t.Errorf("plan covered %d of %d specs", len(seen), len(specs))
	}

	// No peers at all: everything lands in the local shard.
	lonely := fakeEngine(nil, 0)
	lb, err := remote.New(remote.Config{Key: lonely.Key})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	shards := lb.PlanShards(specs)
	if len(shards) != 1 || shards[0].Peer != "" || len(shards[0].Indexes) != len(specs) {
		t.Fatalf("empty ring plan = %+v, want one local shard with every spec", shards)
	}
}
