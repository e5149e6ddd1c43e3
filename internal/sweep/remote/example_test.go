package remote_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
)

// A Backend fans a coordinating engine's runs out to dramthermd peers
// and reports which peer served each run with what cache outcome. Here
// the single "peer" is a stub /v1/exec/batch handler, so the output is
// deterministic; in production the peers are real dramthermd instances.
func ExampleBackend() {
	coord := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 0)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req remote.BatchRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		// A line echoes the spec's key; a peer keying it otherwise (say,
		// under another configuration) is ejected as faulty.
		json.NewEncoder(w).Encode(remote.BatchLine{
			Index:   0,
			Key:     string(coord.Key(req.Specs[0])),
			Outcome: "hit",
			Result:  &sim.MEMSpotResult{Seconds: 412},
		})
	}))
	defer worker.Close()

	backend, err := remote.New(remote.Config{
		Peers: []remote.Peer{{ID: "worker-1", URL: worker.URL}},
		Key:   coord.Key,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer backend.Close()
	coord.SetBatchBackend(backend)

	spec := sweep.Spec{Mix: "W1", Policy: "DTM-ACG"}
	fmt.Println("owner:", backend.OwnerOf(spec))
	res, info, err := coord.Run(context.Background(), spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("served by %s (%s): %.0f s\n", info.Peer, info.Outcome, res.Seconds)
	// Output:
	// owner: worker-1
	// served by worker-1 (hit): 412 s
}

// When every peer is down the backend hands the run back to the
// coordinating engine, which executes it on its own pool rather than
// failing the sweep; the run is attributed to "local".
func ExampleBackend_failover() {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the only peer is unreachable

	coord := sweep.NewEngine(core.NewSystem(core.DefaultConfig()), 0)
	coord.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		return sim.MEMSpotResult{Seconds: 412}, nil // stands in for a simulation
	})
	backend, err := remote.New(remote.Config{
		Peers:   []remote.Peer{{ID: "worker-1", URL: dead.URL}},
		Key:     coord.Key,
		Backoff: time.Minute,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer backend.Close()
	coord.SetBatchBackend(backend)

	res, info, err := coord.Run(context.Background(), sweep.Spec{Mix: "W1"})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("served by %s (%s): %.0f s\n", info.Peer, info.Outcome, res.Seconds)
	fmt.Println("worker-1 up:", backend.Status()[0].Up)
	// Output:
	// served by local (built): 412 s
	// worker-1 up: false
}
