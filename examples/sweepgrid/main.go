// Example sweepgrid explores a design-space grid through the public
// dramtherm facade: it expands (mix × policy × cooling) into specs,
// executes them on a bounded worker pool with per-job progress, prints
// the normalized-runtime table, and demonstrates durable state — rerun
// with the same -segment-dir and the sweep completes from cache, even if
// the previous run crashed mid-sweep (results persist as they finish,
// not at exit).
//
// The whole program imports only the root dramtherm package: the sweep
// engine, grid expansion, options, and durable state all reach the
// caller through the facade.
//
// Usage:
//
//	go run ./examples/sweepgrid
//	go run ./examples/sweepgrid -workers 8 -segment-dir /tmp/sweep.d
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dramtherm"
)

func main() {
	var (
		workers = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS)")
		segDir  = flag.String("segment-dir", "", "durable state directory: results append to a segment log as they complete; rerun to finish from cache")
		full    = flag.Bool("full", false, "full-scale batches (default is a fast demo scale)")
		scale   = flag.Float64("instrscale", 0, "override the application length scale factor")
	)
	flag.Parse()

	cfg := dramtherm.DefaultConfig()
	if !*full {
		// Demo scale: single batch round, 5% application lengths. Short
		// runs never heat the DIMMs near the real TDP (the thermal time
		// constants are 50–100 s), so lower the limits to keep the DTM
		// policies visibly engaged.
		cfg.Replicas = 1
		cfg.InstrScale = 0.05
		cfg.Limits = dramtherm.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	}
	if *scale > 0 {
		cfg.InstrScale = *scale
	}

	eng, err := dramtherm.NewEngine(cfg,
		dramtherm.WithWorkers(*workers), dramtherm.WithStateDir(*segDir))
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	defer eng.Close()
	if warm := eng.Stats().Entries; warm > 0 {
		fmt.Printf("warm start: %d trace records, %d cached runs\n",
			eng.System().Store().Len(), warm)
	}

	grid := dramtherm.Grid{
		Mixes:    []string{"W1", "W2", "W5", "W8"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
		Coolings: []string{"AOHS_1.5"},
	}
	specs := grid.Expand()
	fmt.Printf("sweeping %d specs on %d workers\n", len(specs), eng.Workers())

	start := time.Now()
	res, err := eng.Sweep(context.Background(), specs, dramtherm.SweepOptions{
		Normalize: true,
		OnEvent: func(ev dramtherm.Event) {
			if ev.Kind != dramtherm.EventStarted {
				fmt.Printf("  [%2d/%2d] %s\n", ev.Done, ev.Total, ev.Spec)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", res.Table(fmt.Sprintf("Normalized runtime (runtime / No-limit), %.1fs wall", time.Since(start).Seconds())))
	st := eng.Stats()
	fmt.Printf("cache: %d simulations run, %d requests deduplicated or cached\n", st.Builds, st.Hits+st.Waits)

	if *segDir != "" {
		fmt.Printf("state persisted under %s — rerun to finish from cache\n", *segDir)
	}
}
