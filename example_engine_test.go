package dramtherm_test

import (
	"context"
	"fmt"
	"log"

	"dramtherm"
)

// ExampleNewEngine runs a small design-space sweep through the public
// facade: build an engine, expand a grid, sweep it on the worker pool.
// Add WithStateDir to make the cache durable across restarts — results
// persist as they complete, and a rerun finishes from cache.
func ExampleNewEngine() {
	eng, err := dramtherm.NewEngine(dramtherm.DefaultConfig(),
		dramtherm.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	specs := dramtherm.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-ACG"},
	}.Expand()
	res, err := eng.Sweep(context.Background(), specs, dramtherm.SweepOptions{
		Normalize: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, spec := range specs {
		fmt.Println(spec, res.Norms[i])
	}
}

// ExampleEngine_Sweep_onEvent observes a sweep's lifecycle through the
// facade alone: the OnEvent callback and everything it carries (Event,
// EventKind, Outcome) are usable without importing any internal
// package. Cache hits and deduplicated joins are distinguishable from
// fresh simulations by the event's Outcome.
func ExampleEngine_Sweep_onEvent() {
	eng, err := dramtherm.NewEngine(dramtherm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	specs := dramtherm.Grid{Mixes: []string{"W1"},
		Policies: []string{"DTM-TS", "DTM-BW"}}.Expand()
	_, err = eng.Sweep(context.Background(), specs, dramtherm.SweepOptions{
		OnEvent: func(ev dramtherm.Event) {
			switch ev.Kind {
			case dramtherm.EventFinished:
				cached := ev.Outcome == dramtherm.Hit || ev.Outcome == dramtherm.Joined
				fmt.Printf("%s done in %.1fs (cached: %v, peer: %q)\n",
					ev.Spec, ev.Seconds, cached, ev.Peer)
			case dramtherm.EventError:
				fmt.Printf("%s failed: %v\n", ev.Spec, ev.Err)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
}

// ExampleEngine_Search finds the best DTM configuration adaptively:
// successive halving measures every candidate at a cheap fidelity rung
// (a fraction of the full application lengths), keeps the better half,
// and only the survivors reach full-fidelity simulation.
func ExampleEngine_Search() {
	eng, err := dramtherm.NewEngine(dramtherm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	candidates := dramtherm.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()
	res, err := eng.Search(context.Background(), candidates,
		dramtherm.SearchOptions{Normalize: true, Rungs: []float64{0.25, 1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best %s (normalized %.3f) after %d full-fidelity runs\n",
		res.Best, res.BestObjective, res.FullFidelityRuns)
	fmt.Println(res.Table("search").String())
}
