// clusterdtm demonstrates dramtherm's cluster mode end to end, entirely
// in-process: it starts two embedded dramthermd workers, builds a
// coordinator whose engine fans runs out to them through the
// consistent-hashing remote backend, sweeps a mix×policy grid across
// the cluster, and asserts the aggregated report table is byte-identical
// to a plain single-node sweep. It also counts the cluster's HTTP
// traffic and asserts the whole sweep cost one /v1/exec/batch request
// per live peer — not one request per spec. In every scenario it fails
// if any worker sees a /v1/exec request: coordinators dispatch only over
// /v1/exec/batch. It
// then repeats the sweep on a fresh cluster and kills one worker
// mid-sweep, exercising the failover path (the dead peer's
// unacknowledged shard re-plans onto the survivor or runs locally) — and
// asserts the table still comes out byte-identical.
//
// Finally it proves gossip-based membership under churn: every node
// runs a gossip.Node, the coordinator learns its ring from seed URLs,
// a third worker joins the running cluster mid-sweep through a seed
// member, the coordinator's ring re-forms from the membership delta
// without any restart, one of the original workers is killed, and the
// dead worker's shard re-plans across the survivor AND the newly
// joined worker — per-endpoint request counts prove the joiner served
// batch shards, and the report table still comes out byte-identical to
// the single-node run.
//
// Usage:
//
//	go run ./examples/clusterdtm
//	go run ./examples/clusterdtm -mixes W1,W2 -policies DTM-TS,DTM-BW
//	go run ./examples/clusterdtm -instrscale 0.02     # CI-sized workload
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/obs"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
	"dramtherm/internal/sweep/remote/gossip"
)

var (
	mixes    = flag.String("mixes", "W1,W2", "comma-separated workload mixes")
	policies = flag.String("policies", "DTM-TS,DTM-BW,DTM-ACG,DTM-CDVFS", "comma-separated DTM policies")
	full     = flag.Bool("full", false, "full-scale batches (default is a fast demo scale)")
	scale    = flag.Float64("instrscale", 0, "override the application length scale factor")
)

// newEngine builds a demo-scale engine. Every node of the cluster must
// share one configuration — identical digests are what let keys, caches
// and results line up across peers.
func newEngine() *sweep.Engine {
	cfg := core.DefaultConfig()
	if !*full {
		cfg.Replicas = 1
		cfg.InstrScale = 0.05
		cfg.Limits = fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	}
	if *scale > 0 {
		cfg.InstrScale = *scale
	}
	return sweep.NewEngine(core.NewSystem(cfg), 0)
}

// worker is one embedded dramthermd: engine + wire layer + listener,
// with per-endpoint request counters so the demo can prove how many
// round trips a sweep cost. In the gossip scenario it also runs a
// gossip.Node, and the designated victim's batch endpoint can be gated
// (requests accepted but never answered) so the kill deterministically
// leaves a whole unacknowledged shard to fail over.
type worker struct {
	ts      *httptest.Server
	api     atomic.Pointer[httpapi.Server] // late-bound: the listener must exist first for the gossip self-URL
	node    *gossip.Node
	gated   atomic.Bool
	batches atomic.Int64 // POST /v1/exec/batch (one whole shard)
	once    sync.Once
}

// gossipTimings are the demo's fast-convergence knobs: rounds every
// 10ms, unrefuted suspicions die after 150ms, the dead stay quarantined
// past the demo's lifetime.
func gossipTimings(cfg *gossip.Config) {
	cfg.Interval = 10 * time.Millisecond
	cfg.SuspectAfter = 150 * time.Millisecond
	cfg.Quarantine = time.Minute
}

// startWorker brings up one embedded dramthermd. With an id it also
// joins the gossip plane: the worker serves POST /v1/gossip and
// anti-entropy syncs its membership table through the seed URLs.
func startWorker(id string, seeds ...string) *worker {
	w := &worker{}
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case remote.ExecPath:
			log.Fatalf("a worker received POST %s; coordinators dispatch only over %s", remote.ExecPath, remote.BatchPath)
		case remote.BatchPath:
			w.batches.Add(1)
			if w.gated.Load() {
				// The victim accepts the shard and sits on it until the
				// kill severs the connection. The body must be drained
				// first: net/http only watches for disconnects (and
				// cancels r.Context) once the request body hits EOF.
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				<-r.Context().Done()
				return
			}
		}
		api := w.api.Load()
		if api == nil {
			http.Error(rw, "starting", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(rw, r)
	}))
	cfg := httpapi.Config{}
	if id != "" {
		gcfg := gossip.Config{Self: gossip.Member{ID: id, URL: w.ts.URL}, Seeds: seeds}
		gossipTimings(&gcfg)
		node, err := gossip.NewNode(gcfg)
		if err != nil {
			log.Fatalf("gossip node %s: %v", id, err)
		}
		w.node = node
		cfg.Gossip = node
	}
	w.api.Store(httpapi.New(context.Background(), newEngine(), cfg))
	return w
}

// kill tears the worker down hard: in-flight exec requests and batch
// streams lose their connections (their simulations are cancelled
// server-side) and later dispatches are refused — exactly what a crashed
// peer looks like.
func (w *worker) kill() {
	w.once.Do(func() {
		if w.node != nil {
			w.node.Close()
		}
		w.ts.CloseClientConnections()
		w.ts.Close()
		w.api.Load().Close()
	})
}

// clusterSweep runs specs through a fresh two-worker cluster. When
// killVictim is set, the worker owning the first spec's shard is killed
// as soon as the sweep starts, so its runs fail over. It returns the
// rendered report table, how many specs each peer served, the batch
// request total across both workers, and the coordinator's metrics
// registry so callers can assert on the remote backend's
// dispatch/failover counters. In the clean run it cross-checks the
// coordinator's per-peer batch dispatch counters against each worker's
// own HTTP request counts — two independent observers of the same
// traffic must agree exactly.
func clusterSweep(specs []sweep.Spec, killVictim bool) (table string, served map[string]int, batches int64, reg *obs.Registry) {
	w1, w2 := startWorker(""), startWorker("")
	defer w1.kill()
	defer w2.kill()
	workers := map[string]*worker{"worker-1": w1, "worker-2": w2}

	coord := newEngine()
	backend, err := remote.New(remote.Config{
		Peers: []remote.Peer{
			{ID: "worker-1", URL: w1.ts.URL},
			{ID: "worker-2", URL: w2.ts.URL},
		},
		Key: coord.Key,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()
	reg = obs.NewRegistry()
	backend.Instrument(reg)
	coord.SetBatchBackend(backend)

	victim := backend.OwnerOf(specs[0])
	var onStart func()
	if killVictim {
		onStart = func() {
			go func() {
				workers[victim].kill()
				fmt.Printf("  ✂ killed %s mid-sweep (owner of %s)\n", victim, specs[0])
			}()
		}
	}
	onEvent, served := progress(onStart)
	res, err := coord.Sweep(context.Background(), specs, sweep.Options{OnEvent: onEvent})
	if err != nil {
		log.Fatalf("cluster sweep: %v", err)
	}
	batches = w1.batches.Load() + w2.batches.Load()
	if !killVictim {
		// No kill means no retries on severed connections, so the
		// coordinator's dispatch counters and each worker's own HTTP
		// request counts observed identical traffic.
		for id, w := range workers {
			db := int64(reg.Sum("dramtherm_remote_dispatch_total", map[string]string{"peer": id, "kind": "batch"}))
			if db != w.batches.Load() {
				log.Fatalf("coordinator counted %d batch dispatches to %s, but it served %d batch requests",
					db, id, w.batches.Load())
			}
		}
		fmt.Println("  ✓ batch dispatch counters match workers' batch request counts")
	}
	return res.Table("cluster sweep").String(), served, batches, reg
}

// progress returns a sweep event handler that prints every finished
// spec and tallies it under the peer that served it, and the tally (read
// it once the sweep returns). onStart, when non-nil, runs on the first
// started event.
func progress(onStart func()) (func(sweep.Event), map[string]int) {
	var mu sync.Mutex
	var once sync.Once
	served := map[string]int{}
	return func(ev sweep.Event) {
		switch ev.Kind {
		case sweep.EventStarted:
			if onStart != nil {
				once.Do(onStart)
			}
		case sweep.EventFinished:
			peer := ev.Peer
			if peer == "" {
				peer = "coordinator-cache"
			}
			mu.Lock()
			served[peer]++
			mu.Unlock()
			fmt.Printf("  ✓ [%2d/%2d] %-28s %6.0f s  (%s on %s)\n",
				ev.Done, ev.Total, ev.Spec, ev.Seconds, ev.Outcome, peer)
		}
	}, served
}

// ringHas reports whether the backend's membership currently includes
// the peer id.
func ringHas(b *remote.Backend, id string) bool {
	for _, p := range b.Status() {
		if p.ID == id {
			return true
		}
	}
	return false
}

// gossipSweep runs specs through a gossiping cluster under churn. Every
// node runs a gossip.Node: two workers seed off each other, and the
// coordinator (an observer member) follows the gossip membership from
// both workers' seed URLs, re-forming its ring from every delta. The
// worker owning the first spec's shard is gated — it accepts its batch
// request and never answers — so the sweep stalls on it while a third
// worker joins the running cluster through a seed member. Once the coordinator's
// ring includes the joiner, the gated worker is killed: its whole
// unacknowledged shard re-plans across the survivor AND worker-3, with
// zero coordinator restarts. Returns the report table, who served what,
// and the joiner's batch-request count (the proof it took real shards).
func gossipSweep(specs []sweep.Spec) (table string, served map[string]int, joinerBatches int64) {
	w1 := startWorker("worker-1")
	w2 := startWorker("worker-2", w1.ts.URL)
	defer w1.kill()
	defer w2.kill()
	workers := map[string]*worker{"worker-1": w1, "worker-2": w2}

	coord := newEngine()
	backend, err := remote.New(remote.Config{Key: coord.Key})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()
	gcfg := gossip.Config{
		Self:  gossip.Member{ID: "coordinator"},
		Seeds: []string{w1.ts.URL, w2.ts.URL},
	}
	gossipTimings(&gcfg)
	node, err := backend.Follow(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	coord.SetBatchBackend(backend)
	if !ringHas(backend, "worker-1") || !ringHas(backend, "worker-2") {
		log.Fatal("the seed workers are not in the coordinator's ring after its first gossip round")
	}

	victim := backend.OwnerOf(specs[0])
	survivor := "worker-2"
	if victim == survivor {
		survivor = "worker-1"
	}
	workers[victim].gated.Store(true)

	// Churn, triggered by the sweep's first started event: join worker-3
	// through the survivor seed, wait for the coordinator's ring to
	// re-form around it, then kill the gated victim so its whole shard
	// fails over onto the post-join ring.
	started := make(chan struct{})
	var w3 *worker
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		<-started
		w3 = startWorker("worker-3", workers[survivor].ts.URL)
		waitFor(30*time.Second, func() bool { return ringHas(backend, "worker-3") },
			"worker-3 never reached the coordinator's ring")
		fmt.Printf("  ⇄ worker-3 joined the ring mid-sweep (gossiped through %s)\n", survivor)
		workers[victim].kill()
		fmt.Printf("  ✂ killed %s mid-sweep (owner of %s)\n", victim, specs[0])
	}()

	onEvent, served := progress(func() { close(started) })
	res, err := coord.Sweep(context.Background(), specs, sweep.Options{OnEvent: onEvent})
	if err != nil {
		log.Fatalf("gossip sweep: %v", err)
	}
	<-churned
	defer w3.kill()

	// The dead worker must also leave the membership — suspicion from
	// the failed dispatch, confirmed dead by timeout, evicted from the
	// ring by the gossip delta, all without restarting anything.
	waitFor(10*time.Second, func() bool { return !ringHas(backend, victim) },
		"dead %s never left the coordinator's ring", victim)
	fmt.Printf("  ⇄ dead %s gossiped out of the ring (membership now %d workers)\n",
		victim, len(backend.Status()))
	return res.Table("cluster sweep").String(), served, w3.batches.Load()
}

// waitFor polls cond until it holds, exiting with the message if it
// does not within d.
func waitFor(d time.Duration, cond func() bool, format string, args ...any) {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf(format, args...)
		}
	}
}

// livePeersServing counts distinct worker peers in a served map (the
// coordinator's own cache and local fallback are not HTTP peers).
func livePeersServing(served map[string]int) int {
	n := 0
	for peer := range served {
		if strings.HasPrefix(peer, "worker-") {
			n++
		}
	}
	return n
}

func main() {
	flag.Parse()
	grid := sweep.Grid{
		Mixes:    strings.Split(*mixes, ","),
		Policies: strings.Split(*policies, ","),
	}
	specs := grid.Expand()
	fmt.Printf("grid: %d mixes × %d policies = %d specs (batched shard dispatch)\n\n",
		len(grid.Mixes), len(grid.Policies), len(specs))

	// Reference: the same grid on one plain single-node engine.
	fmt.Println("single-node reference sweep:")
	local := newEngine()
	ref, err := local.Sweep(context.Background(), specs, sweep.Options{})
	if err != nil {
		log.Fatalf("local sweep: %v", err)
	}
	refTable := ref.Table("cluster sweep").String()
	fmt.Print(refTable)

	// Cluster: two embedded workers behind a coordinating engine.
	fmt.Println("\ncluster sweep across 2 embedded workers:")
	clusterTable, served, batches, _ := clusterSweep(specs, false)
	fmt.Printf("  shard distribution: %v\n", served)
	fmt.Printf("  HTTP requests: %d batch, for %d specs\n", batches, len(specs))
	if clusterTable != refTable {
		log.Fatalf("cluster table differs from single-node table:\n--- local ---\n%s--- cluster ---\n%s",
			refTable, clusterTable)
	}
	fmt.Println("  ✓ report table byte-identical to the single-node run")
	// The whole point of batching: one request per live peer, not one
	// per spec.
	want := int64(livePeersServing(served))
	if batches != want {
		log.Fatalf("batched sweep cost %d batch requests, want exactly %d (one per serving peer)", batches, want)
	}
	fmt.Printf("  ✓ one /v1/exec/batch request per live peer (%d requests for %d specs)\n", batches, len(specs))

	// Failover: fresh cluster, one worker killed as the sweep starts.
	fmt.Println("\ncluster sweep with one worker killed mid-sweep:")
	failTable, served, batches, failReg := clusterSweep(specs, true)
	fmt.Printf("  shard distribution after failover: %v\n", served)
	fmt.Printf("  HTTP requests: %d batch\n", batches)
	if failTable != refTable {
		log.Fatalf("failover table differs from single-node table:\n--- local ---\n%s--- failover ---\n%s",
			refTable, failTable)
	}
	fmt.Println("  ✓ report table byte-identical despite the dead worker")
	// The kill must be visible in the coordinator's own metrics: the dead
	// peer transitions down, and the lost work is re-planned.
	if down := failReg.Sum("dramtherm_remote_peer_state_transitions_total", map[string]string{"to": "down"}); down < 1 {
		log.Fatalf("killed a worker but peer_state_transitions_total{to=down} = %v", down)
	}
	if n := failReg.Sum("dramtherm_remote_replan_rounds_total", nil); n < 1 {
		log.Fatalf("killed a worker mid-batch but replan_rounds_total = %v", n)
	}
	fmt.Println("  ✓ failover visible in metrics: down transition + re-planned work")

	// Gossip membership under churn: join mid-sweep, kill mid-sweep.
	fmt.Println("\ngossip cluster sweep: worker-3 joins mid-sweep, one worker killed:")
	gossipTable, served, joinerBatches := gossipSweep(specs)
	fmt.Printf("  shard distribution after churn: %v\n", served)
	if gossipTable != refTable {
		log.Fatalf("gossip-churn table differs from single-node table:\n--- local ---\n%s--- gossip ---\n%s",
			refTable, gossipTable)
	}
	fmt.Println("  ✓ report table byte-identical through join + kill, zero coordinator restarts")
	if joinerBatches == 0 || served["worker-3"] == 0 {
		log.Fatalf("worker-3 served %d batch requests / %d specs, want it visibly serving shards",
			joinerBatches, served["worker-3"])
	}
	fmt.Printf("  ✓ mid-sweep joiner worker-3 served %d batch shard(s), %d spec(s)\n",
		joinerBatches, served["worker-3"])
	fmt.Printf("\n✓ no worker received a %s request in any scenario\n", remote.ExecPath)
}
