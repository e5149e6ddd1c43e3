// Command memspot runs one level-2 thermal simulation (the MEMSpot stage
// of §4.3.1) for a workload mix under a chosen DTM policy and prints the
// run summary plus an ASCII temperature trace. Runs go through the
// internal/sweep engine, so the spec run and its No-limit normalization
// baseline share the one deduplicating run cache with every other entry
// point. With -segment-dir the engine replays the level-1 records
// (cmd/tracegen's output) and cached runs in that segment-log directory
// first, and appends the run, its baseline and any record it builds, so
// a second identical run on the same directory is a cache hit.
//
// Usage:
//
//	memspot -mix W1 -policy DTM-ACG -cooling AOHS_1.5
//	memspot -mix W2 -policy DTM-CDVFS+PID -model integrated -replicas 4
//	memspot -segment-dir w1.d -mix W1 -policy DTM-BW   # reuse tracegen's records
//	memspot -mix W1 -instrscale 0.05                   # fast demo scale
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dramtherm/internal/core"
	"dramtherm/internal/report"
	"dramtherm/internal/sweep"
)

func main() {
	var (
		mixName  = flag.String("mix", "W1", "workload mix")
		policy   = flag.String("policy", "DTM-ACG", "policy (see core.PolicyNames)")
		cooling  = flag.String("cooling", "AOHS_1.5", "cooling config: AOHS_1.5 or FDHS_1.0")
		model    = flag.String("model", "isolated", "thermal model: isolated or integrated")
		replicas = flag.Int("replicas", 8, "batch copies per application")
		scale    = flag.Float64("instrscale", 0, "application length scale factor (0 = 1.0; small values for demos)")
		segDir   = flag.String("segment-dir", "", "optional segment-log directory to replay and append to (see tracegen)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Replicas = *replicas
	if *scale > 0 {
		cfg.InstrScale = *scale
	}
	eng := sweep.NewEngine(core.NewSystem(cfg), 0)
	if *segDir != "" {
		fail(eng.EnableSegmentLog(*segDir, 0))
		st, _ := eng.StateStats()
		fmt.Printf("replayed %d level-1 records, skipped %d, from %s\n", eng.System().Store().Len(), st.SkippedTraces, *segDir)
	}

	spec := sweep.Spec{Mix: *mixName, Policy: *policy, Cooling: *cooling, Model: *model}
	fail(eng.Validate(spec))

	ctx := context.Background()
	res, _, err := eng.Run(ctx, spec)
	fail(err)
	// The spec run is already cached, so this only adds the baseline.
	norm, err := eng.Normalized(ctx, spec)
	fail(err)
	// Syncs the segment log; a no-op without -segment-dir.
	fail(eng.Close())

	fmt.Printf("mix %s under %s (%s, %s model)\n", *mixName, *policy, *cooling, *model)
	fmt.Printf("  running time:     %.0f s  (normalized %.3f vs No-limit)\n", res.Seconds, norm)
	fmt.Printf("  memory traffic:   %.0f GB (read %.0f / write %.0f)\n", res.TotalTrafficGB(), res.ReadGB, res.WriteGB)
	fmt.Printf("  FBDIMM energy:    %.1f kJ   CPU energy: %.1f kJ\n", res.MemEnergyJ/1e3, res.CPUEnergyJ/1e3)
	fmt.Printf("  max AMB/DRAM:     %.1f / %.1f C   overshoot episodes: %d\n", res.MaxAMB, res.MaxDRAM, res.Overshoots)
	fmt.Printf("  jobs completed:   %d\n\n", res.Completed)

	fig := report.NewFigure("AMB temperature trace", "time (s)", "C")
	fig.Add("AMB", res.AMBTrace)
	fig.Add("DRAM", res.DRAMTrace)
	fmt.Print(fig.Chart(78, 16))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
