package remote_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/httpapi"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
	"dramtherm/internal/sweep/remote/gossip"
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

// TestDetectorCallbacks: a failed dispatch fires OnPeerDown once per
// up→down transition — the seam Follow feeds gossip suspicion through.
func TestDetectorCallbacks(t *testing.T) {
	var downs atomic.Int32
	var lastDown atomic.Value
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer broken.Close()
	coord := fakeEngine(nil, 0)
	b := newBackend(t, coord, remote.Config{
		Peers:   []remote.Peer{{ID: "broken", URL: broken.URL}},
		Backoff: time.Hour,
		OnPeerDown: func(id string, cause error) {
			downs.Add(1)
			lastDown.Store(id)
		},
	})

	run := func(i int) {
		b.RunSpecs(context.Background(), specsSample(i + 1)[i:],
			func(int, sim.MEMSpotResult, sweep.RunInfo, error) {})
	}
	run(0)
	if downs.Load() != 1 || lastDown.Load() != "broken" {
		t.Fatalf("after a failed dispatch: downs=%d lastDown=%v, want 1 broken", downs.Load(), lastDown.Load())
	}
	run(1) // still down (backoff running): no dispatch, no repeat notification
	if downs.Load() != 1 {
		t.Fatalf("a run while the peer is down re-notified: downs=%d", downs.Load())
	}
}

// TestCloseDuringChurnNoLeak: a storm of dispatches and membership
// deltas must all unwind on Close — no goroutine may outlive the
// backend, whatever state the churn left it in.
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
			Peers:   peers,
			Key:     coord.Key,
			Backoff: time.Microsecond,
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
					if i%2 == 0 {
						b.RunSpecs(ctx, []sweep.Spec{{Mix: fmt.Sprintf("W%d", (g+i)%12+1)}},
							func(int, sim.MEMSpotResult, sweep.RunInfo, error) {})
					} else {
						b.SetMembers(peers[:1+(g+i)%3])
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

// gossipWorker is an embedded dramthermd worker as the daemon runs it:
// a fake engine behind httpapi with a gossip node, no seeds and no
// flags. It can crash (every request answers 503) and restart (a fresh
// node with an empty table at the same URL), and it counts the batches
// it is sent.
type gossipWorker struct {
	id      string // member id; derived from the URL when empty
	ts      *httptest.Server
	api     atomic.Pointer[httpapi.Server]
	node    atomic.Pointer[gossip.Node]
	down    atomic.Bool
	batches atomic.Int64
}

func startGossipWorker(t *testing.T, now func() time.Time) *gossipWorker {
	t.Helper()
	return startGossipWorkerAs(t, "", now)
}

// startGossipWorkerAs starts a worker under member id (derived from its
// URL when empty).
func startGossipWorkerAs(t *testing.T, id string, now func() time.Time) *gossipWorker {
	t.Helper()
	w := &gossipWorker{id: id}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.down.Load() {
			http.Error(rw, "crashed", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == remote.BatchPath {
			w.batches.Add(1)
		}
		w.api.Load().ServeHTTP(rw, r)
	}))
	t.Cleanup(w.ts.Close)
	w.restart(t, now)
	return w
}

// restart boots a fresh node and API, as a restarted daemon would.
func (w *gossipWorker) restart(t *testing.T, now func() time.Time) {
	t.Helper()
	id := w.id
	if id == "" {
		id = remote.DeriveID(w.ts.URL)
	}
	node, err := gossip.NewNode(gossip.Config{
		Self:         gossip.Member{ID: id, URL: w.ts.URL},
		Interval:     -1,
		SuspectAfter: suspectAfter,
		Quarantine:   quarantine,
		Now:          now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	api := httpapi.New(context.Background(), fakeEngine(nil, 0), httpapi.Config{Gossip: node})
	t.Cleanup(api.Close)
	w.node.Store(node)
	w.api.Store(api)
	w.down.Store(false)
}

// gossipCoordinator is a coordinator as dramthermd builds one: an
// engine over a backend that Follows a gossip node, served by httpapi
// so it answers gossip too. It counts the batches it is sent.
type gossipCoordinator struct {
	ts      *httptest.Server
	eng     *sweep.Engine
	b       *remote.Backend
	node    *gossip.Node
	reg     *obs.Registry
	batches atomic.Int64
}

// Gossip timings of the membership tests: one round per interval on
// the fake clock.
const (
	interval     = time.Second
	suspectAfter = 5 * interval
	quarantine   = 30 * interval
)

func startCoordinator(t *testing.T, id string, seeds []string, now func() time.Time) *gossipCoordinator {
	t.Helper()
	c := &gossipCoordinator{eng: fakeEngine(nil, 0), reg: obs.NewRegistry()}
	var api atomic.Pointer[httpapi.Server]
	c.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == remote.BatchPath {
			c.batches.Add(1)
		}
		api.Load().ServeHTTP(rw, r)
	}))
	t.Cleanup(c.ts.Close)
	c.b = newBackend(t, c.eng, remote.Config{})
	c.b.Instrument(c.reg)
	var err error
	c.node, err = c.b.Follow(gossip.Config{
		// The advertised URL is dropped: a coordinator is an observer.
		Self:         gossip.Member{ID: id, URL: c.ts.URL},
		Seeds:        seeds,
		Interval:     -1,
		SuspectAfter: suspectAfter,
		Quarantine:   quarantine,
		Now:          now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.node.Close)
	c.eng.SetBatchBackend(c.b)
	a := httpapi.New(context.Background(), c.eng, httpapi.Config{Gossip: c.node})
	t.Cleanup(a.Close)
	api.Store(a)
	return c
}

// ring lists the coordinator's ring members as id@url.
func (c *gossipCoordinator) ring() []string {
	var out []string
	for _, ps := range c.b.Status() {
		out = append(out, ps.ID+"@"+ps.URL)
	}
	return out
}

// fakeClock is a hand-advanced clock for gossip timeouts.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

// rounds advances the clock by one interval and runs one gossip round
// on every node, n times.
func rounds(clk *fakeClock, n int, nodes ...func() *gossip.Node) {
	for i := 0; i < n; i++ {
		clk.advance(interval)
		for _, node := range nodes {
			node().Round(context.Background())
		}
	}
}

func (w *gossipWorker) gossip() *gossip.Node      { return w.node.Load() }
func (c *gossipCoordinator) gossip() *gossip.Node { return c.node }

// TestSeedAliasIsOneRingMember: a worker listed under an alias URL
// (localhost) while advertising another (127.0.0.1) is one ring
// member, reached at the seed URL — never two members for one worker.
func TestSeedAliasIsOneRingMember(t *testing.T) {
	clk := newClock()
	w := startGossipWorker(t, clk.now)
	alias := strings.Replace(w.ts.URL, "127.0.0.1", "localhost", 1)
	c := startCoordinator(t, "coordinator", []string{alias}, clk.now)
	rounds(clk, 3, c.gossip, w.gossip)

	want := remote.DeriveID(w.ts.URL) + "@" + alias
	if got := c.ring(); len(got) != 1 || got[0] != want {
		t.Fatalf("ring = %v, want exactly [%s]", got, want)
	}
	_, info, err := c.eng.Run(context.Background(), sweep.Spec{Mix: "W1", Policy: "DTM-TS"})
	if err != nil || info.Peer != remote.DeriveID(w.ts.URL) || w.batches.Load() != 1 {
		t.Fatalf("run: info=%+v err=%v worker batches=%d, want one batch on the worker",
			info, err, w.batches.Load())
	}
}

// TestSilentWorkerLeavesRing: a worker that stops answering is
// suspected by failed gossip exchanges, declared dead after
// SuspectAfter and dropped from the coordinator's ring, with no
// dispatch traffic at all.
func TestSilentWorkerLeavesRing(t *testing.T) {
	clk := newClock()
	w := startGossipWorker(t, clk.now)
	c := startCoordinator(t, "coordinator", []string{w.ts.URL}, clk.now)
	// No round yet: Follow's own first round reached the seed.
	if got := c.ring(); len(got) != 1 {
		t.Fatalf("ring right after Follow = %v, want the worker", got)
	}

	w.down.Store(true)
	for elapsed := time.Duration(0); len(c.ring()) > 0; elapsed += interval {
		if elapsed > suspectAfter+3*interval {
			t.Fatalf("silent worker still in the ring %v after it stopped answering: %v", elapsed, c.ring())
		}
		rounds(clk, 1, c.gossip)
	}
	if n := c.reg.Sum("dramtherm_remote_dispatch_total", nil); n != 0 || w.batches.Load() != 0 {
		t.Fatalf("dispatch traffic = %v (worker saw %d batches), want none", n, w.batches.Load())
	}
}

// TestRestartedSeedWorkerRejoins: a seed worker that crashed, was
// declared dead and restarted with an empty table and no seeds of its
// own is back in the coordinator's ring within SuspectAfter +
// Quarantine plus a few intervals of the crash, at its seed URL.
func TestRestartedSeedWorkerRejoins(t *testing.T) {
	clk := newClock()
	w := startGossipWorker(t, clk.now)
	c := startCoordinator(t, "coordinator", []string{w.ts.URL}, clk.now)
	rounds(clk, 1, c.gossip)
	want := remote.DeriveID(w.ts.URL) + "@" + w.ts.URL

	w.down.Store(true)
	crashed := clk.now()
	for len(c.ring()) > 0 {
		rounds(clk, 1, c.gossip)
	}
	rounds(clk, 2, c.gossip)
	w.restart(t, clk.now)
	for {
		if got := c.ring(); len(got) == 1 && got[0] == want {
			break
		}
		if elapsed := clk.now().Sub(crashed); elapsed > suspectAfter+quarantine+3*interval {
			t.Fatalf("restarted worker not back in the ring %v after the crash: %v", elapsed, c.ring())
		}
		rounds(clk, 1, c.gossip, w.gossip)
	}
	if _, info, err := c.eng.Run(context.Background(), sweep.Spec{Mix: "W1", Policy: "DTM-BW"}); err != nil || info.Peer == "local" {
		t.Fatalf("run after the rejoin: info=%+v err=%v, want the worker", info, err)
	}
}

// TestCoordinatorsNeverDispatchToEachOther: two coordinators seeded
// with the same workers (the second also lists the first) gossip with
// each other, yet each ring holds only the workers, so neither ever
// sends the other a /v1/exec/batch.
func TestCoordinatorsNeverDispatchToEachOther(t *testing.T) {
	clk := newClock()
	w1, w2 := startGossipWorker(t, clk.now), startGossipWorker(t, clk.now)
	seeds := []string{w1.ts.URL, w2.ts.URL}
	c1 := startCoordinator(t, "coordinator-1", seeds, clk.now)
	c2 := startCoordinator(t, "coordinator-2", append(seeds, c1.ts.URL), clk.now)
	rounds(clk, 5, c1.gossip, c2.gossip, w1.gossip, w2.gossip)

	workers := []string{
		remote.DeriveID(w1.ts.URL) + "@" + w1.ts.URL,
		remote.DeriveID(w2.ts.URL) + "@" + w2.ts.URL,
	}
	sort.Strings(workers)
	for _, c := range []*gossipCoordinator{c1, c2} {
		got := c.ring()
		sort.Strings(got)
		if !slices.Equal(got, workers) {
			t.Fatalf("ring = %v, want only the workers %v", got, workers)
		}
		known := 0
		for _, m := range c.node.Members() {
			if strings.HasPrefix(m.ID, "coordinator-") {
				known++
			}
		}
		if known != 2 {
			t.Fatalf("coordinators do not gossip with each other: membership %v", c.node.Members())
		}
		if _, err := c.eng.Sweep(context.Background(), specsSample(16), sweep.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if c1.batches.Load() != 0 || c2.batches.Load() != 0 {
		t.Fatalf("coordinators received %d and %d batches, want none", c1.batches.Load(), c2.batches.Load())
	}
	if w1.batches.Load()+w2.batches.Load() == 0 {
		t.Fatal("the workers served nothing")
	}
}

// TestSeedsAnsweringAsOneMemberWarn: two workers that share a member id
// behind different seed URLs — flagless workers on two hosts that
// advertise the same URL — fit one table row and one ring slot, so one
// of them would never get a shard. The coordinator says so in a
// warning naming both seeds.
func TestSeedsAnsweringAsOneMemberWarn(t *testing.T) {
	clk := newClock()
	w1 := startGossipWorkerAs(t, "127.0.0.1:8080", clk.now)
	w2 := startGossipWorkerAs(t, "127.0.0.1:8080", clk.now)
	var logs bytes.Buffer
	b := newBackend(t, fakeEngine(nil, 0), remote.Config{})
	node, err := b.Follow(gossip.Config{
		Self:     gossip.Member{ID: "coordinator"},
		Seeds:    []string{w1.ts.URL, w2.ts.URL},
		Interval: -1,
		Now:      clk.now,
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if st := b.Status(); len(st) != 1 {
		t.Fatalf("ring = %+v, want the one slot of the shared id", st)
	}
	out := logs.String()
	if !strings.Contains(out, "two seed URLs answered as the same member") ||
		!strings.Contains(out, w1.ts.URL) || !strings.Contains(out, w2.ts.URL) {
		t.Fatalf("no warning naming both seeds; log:\n%s", out)
	}
}

// TestStoppedCoordinatorAgesOut: nobody dials a coordinator (it is an
// observer with no URL), yet a worker ages its row from the last
// exchange: while the coordinator gossips it stays alive, and once it
// stops its row turns suspect, then dead, then is forgotten.
func TestStoppedCoordinatorAgesOut(t *testing.T) {
	clk := newClock()
	w := startGossipWorker(t, clk.now)
	c := startCoordinator(t, "coordinator", []string{w.ts.URL}, clk.now)
	row := func() (gossip.Member, bool) {
		for _, m := range w.gossip().Members() {
			if m.ID == "coordinator" {
				return m, true
			}
		}
		return gossip.Member{}, false
	}
	rounds(clk, int(3*suspectAfter/interval), c.gossip, w.gossip)
	if m, ok := row(); !ok || m.State != gossip.Alive {
		t.Fatalf("gossiping coordinator at the worker = %+v (known %v), want alive", m, ok)
	}

	var seen []gossip.State
	for elapsed := time.Duration(0); ; elapsed += interval {
		m, ok := row()
		if !ok {
			break
		}
		if len(seen) == 0 || seen[len(seen)-1] != m.State {
			seen = append(seen, m.State)
		}
		if elapsed > 2*suspectAfter+quarantine+3*interval {
			t.Fatalf("stopped coordinator still in the worker's table %v later: %+v", elapsed, m)
		}
		rounds(clk, 1, w.gossip)
	}
	if want := []gossip.State{gossip.Alive, gossip.Suspect, gossip.Dead}; !slices.Equal(seen, want) {
		t.Fatalf("coordinator row went %v before it was forgotten, want %v", seen, want)
	}
}
