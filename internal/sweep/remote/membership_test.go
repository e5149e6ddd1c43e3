package remote_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// specsSample enumerates n distinct specs spread across mixes and
// policies, so they hash all over the ring.
func specsSample(n int) []sweep.Spec {
	out := make([]sweep.Spec, n)
	for i := range out {
		out[i] = sweep.Spec{Mix: fmt.Sprintf("W%d", i%8+1), Policy: "No-limit", Interval: float64(i)}
	}
	return out
}

// serveAll runs specs through b as one batch and returns who served
// each, failing the test on any delivered error.
func serveAll(t *testing.T, b *remote.Backend, specs []sweep.Spec) []sweep.RunInfo {
	t.Helper()
	infos := make([]sweep.RunInfo, len(specs))
	errs := make([]error, len(specs))
	b.RunSpecs(context.Background(), specs, func(i int, _ sim.MEMSpotResult, info sweep.RunInfo, err error) {
		infos[i], errs[i] = info, err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %s: %v", specs[i], err)
		}
	}
	return infos
}

// TestSetMembersJoinAndLeave: a joined member starts serving its share
// of the key space without a backend restart, and a removed member's
// share redistributes to the survivors — while the survivors' own keys
// never reroute.
func TestSetMembersJoinAndLeave(t *testing.T) {
	coord := fakeEngine(nil, 0)
	w1, w2 := fakeWorker(t, nil, 0), fakeWorker(t, nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "w1", URL: w1.URL}},
	})

	specs := specsSample(40)
	for i, info := range serveAll(t, b, specs) {
		if info.Peer != "w1" {
			t.Fatalf("spec %s served by %q before the join, want w1", specs[i], info.Peer)
		}
	}

	// Join w2: it must take over part of the key space.
	b.SetMembers([]remote.Peer{{ID: "w1", URL: w1.URL}, {ID: "w2", URL: w2.URL}})
	servedBy := map[string]int{}
	for _, info := range serveAll(t, b, specs) {
		servedBy[info.Peer]++
	}
	if servedBy["w2"] == 0 {
		t.Fatalf("joined member served nothing (distribution %v)", servedBy)
	}
	if servedBy["w1"]+servedBy["w2"] != len(specs) {
		t.Fatalf("unexpected servers in %v", servedBy)
	}

	// Leave w1: everything must flow to w2, with zero failovers (the
	// plan must not route through the departed member at all).
	b.SetMembers([]remote.Peer{{ID: "w2", URL: w2.URL}})
	for i, info := range serveAll(t, b, specs) {
		if info.Peer != "w2" {
			t.Fatalf("spec %s served by %q after w1 left, want w2", specs[i], info.Peer)
		}
	}
	for _, st := range b.Status() {
		if st.ID == "w1" {
			t.Fatal("departed member still listed in Status")
		}
		if st.Failures != 0 {
			t.Fatalf("membership changes caused %d dispatch failures on %s", st.Failures, st.ID)
		}
	}
}

// TestSetMembersRetainsHealthState: a member that stays across a delta
// keeps its health state and counters; re-adding a departed id builds a
// fresh admitted peer.
func TestSetMembersRetainsHealthState(t *testing.T) {
	coord := fakeEngine(nil, 0)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // unreachable from the start
	w1 := fakeWorker(t, nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "w1", URL: w1.URL}, {ID: "corpse", URL: dead.URL}},
		Now:   time.Now,
	})
	// Eject the corpse by failing a dispatch through it.
	serveAll(t, b, specsSample(40))
	down := func() bool {
		for _, st := range b.Status() {
			if st.ID == "corpse" {
				return !st.Up
			}
		}
		return false
	}
	if !down() {
		t.Fatal("corpse never got ejected")
	}
	// A delta that keeps both members must keep the corpse down.
	b.SetMembers([]remote.Peer{{ID: "corpse", URL: dead.URL}, {ID: "w1", URL: w1.URL}})
	if !down() {
		t.Fatal("SetMembers with an unchanged id reset its health state")
	}
	// Dropping and re-adding the id is a fresh join: admitted again.
	b.SetMembers([]remote.Peer{{ID: "w1", URL: w1.URL}})
	b.SetMembers([]remote.Peer{{ID: "w1", URL: w1.URL}, {ID: "corpse", URL: dead.URL}})
	if down() {
		t.Fatal("a re-added member must start admitted")
	}
}

// TestDetectorCallbacks: eject fires OnPeerDown, probe-confirmed
// recovery fires OnPeerUp — the seam gossip suspicion plugs into.
func TestDetectorCallbacks(t *testing.T) {
	var downs, ups atomic.Int32
	var lastDown atomic.Value
	var healthy atomic.Bool
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flappy.Close()
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers: []remote.Peer{{ID: "flappy", URL: flappy.URL}},
		OnPeerDown: func(id string, cause error) {
			downs.Add(1)
			lastDown.Store(id)
		},
		OnPeerUp: func(id string) { ups.Add(1) },
	})

	b.Probe(context.Background())
	if downs.Load() != 1 || lastDown.Load() != "flappy" {
		t.Fatalf("after a failed probe: downs=%d lastDown=%v, want 1 flappy", downs.Load(), lastDown.Load())
	}
	b.Probe(context.Background()) // still down: no repeat notification
	if downs.Load() != 1 {
		t.Fatalf("repeated failed probes re-notified: downs=%d", downs.Load())
	}
	healthy.Store(true)
	b.Probe(context.Background())
	if ups.Load() != 1 {
		t.Fatalf("after a successful probe: ups=%d, want 1", ups.Load())
	}
}

// TestCloseDuringChurnNoLeak: the prober plus a storm of dispatches,
// probes and membership deltas must all unwind on Close — no goroutine
// may outlive the backend, whatever state the churn left it in.
func TestCloseDuringChurnNoLeak(t *testing.T) {
	coord := fakeEngine(nil, 0)
	w1, w2 := fakeWorker(t, nil, 0), fakeWorker(t, nil, 0)
	peers := []remote.Peer{
		{ID: "w1", URL: w1.URL},
		{ID: "w2", URL: w2.URL},
		{ID: "corpse", URL: "http://192.0.2.1:9"},
	}
	// Baseline after the servers are up: their goroutines are the
	// test's, not the backend's.
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for iter := 0; iter < 3; iter++ {
		b, err := remote.New(remote.Config{
			Peers:        peers,
			Key:          coord.Key,
			ProbeEvery:   time.Millisecond,
			ProbeTimeout: 50 * time.Millisecond,
			Backoff:      time.Microsecond,
			// Client stays nil: the backend owns it, so Close must also
			// reap its idle connections.
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ctx.Err() == nil && i < 50; i++ {
					switch i % 3 {
					case 0:
						b.RunSpecs(ctx, []sweep.Spec{{Mix: fmt.Sprintf("W%d", (g+i)%12+1)}},
							func(int, sim.MEMSpotResult, sweep.RunInfo, error) {})
					case 1:
						b.SetMembers(peers[:1+(g+i)%3])
					default:
						b.Probe(ctx)
					}
				}
			}(g)
		}
		time.Sleep(10 * time.Millisecond) // let churn overlap the close
		cancel()
		b.Close()
		wg.Wait()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
