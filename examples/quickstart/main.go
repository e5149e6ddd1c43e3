// Quickstart: run one memory-intensive workload mix under the proposed
// DTM-ACG policy and compare it with the unconstrained baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"dramtherm"
)

func main() {
	scale := flag.Float64("instrscale", 0, "application length scale factor (0 = 1.0; small values for quick demos)")
	flag.Parse()

	cfg := dramtherm.DefaultConfig()
	if *scale > 0 {
		cfg.InstrScale = *scale
	}
	eng, err := dramtherm.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// W1 (swim, mgrid, applu, galgel) under the default cooling and model.
	spec := dramtherm.Spec{Mix: "W1", Cooling: "AOHS_1.5", Model: "isolated"}

	// Baseline: the ideal machine without a thermal limit.
	spec.Policy = "No-limit"
	base, _, err := eng.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("No-limit:  %6.0f s, peak AMB %.1f C (the FBDIMM would overheat)\n",
		base.Seconds, base.MaxAMB)

	// The same machine under adaptive core gating.
	spec.Policy = "DTM-ACG"
	res, _, err := eng.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DTM-ACG:   %6.0f s, peak AMB %.1f C (safe)\n", res.Seconds, res.MaxAMB)
	fmt.Printf("normalized running time: %.2f\n", res.Seconds/base.Seconds)
	fmt.Printf("memory traffic reduced:  %.1f%% (L2 contention relief)\n",
		(1-res.TotalTrafficGB()/base.TotalTrafficGB())*100)
}
