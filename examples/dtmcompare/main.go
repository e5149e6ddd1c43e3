// dtmcompare sweeps every DTM policy over a workload mix and prints the
// Fig. 4.3-style comparison: normalized running time, traffic, energy and
// thermal safety, with and without the PID formal controller.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"dramtherm"
)

func main() {
	mixName := flag.String("mix", "W2", "workload mix (W1..W8)")
	cooling := flag.String("cooling", "AOHS_1.5", "AOHS_1.5 or FDHS_1.0")
	replicas := flag.Int("replicas", 6, "batch copies per application")
	scale := flag.Float64("instrscale", 0, "application length scale factor (0 = 1.0; small values for quick demos)")
	flag.Parse()

	cfg := dramtherm.DefaultConfig()
	cfg.Replicas = *replicas
	if *scale > 0 {
		cfg.InstrScale = *scale
	}
	eng, err := dramtherm.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// One sweep runs the baseline and every policy; a bad -cooling fails.
	specs := []dramtherm.Spec{{Mix: *mixName, Policy: "No-limit", Cooling: *cooling}}
	for _, name := range dramtherm.PolicyNames() {
		if name != "No-limit" {
			specs = append(specs, dramtherm.Spec{Mix: *mixName, Policy: name, Cooling: *cooling})
		}
	}
	sw, err := eng.Sweep(context.Background(), specs, dramtherm.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}

	base := sw.Results[0]
	fmt.Printf("%s under %s — baseline %.0f s, %.0f GB\n\n", *mixName, *cooling, base.Seconds, base.TotalTrafficGB())
	fmt.Printf("%-15s %9s %9s %9s %9s %7s %6s\n",
		"policy", "norm time", "traffic", "mem kJ", "cpu kJ", "maxAMB", "overs")
	for i, spec := range specs[1:] {
		res := sw.Results[i+1]
		fmt.Printf("%-15s %9.3f %9.3f %9.0f %9.0f %7.1f %6d\n",
			spec.Policy,
			res.Seconds/base.Seconds,
			res.TotalTrafficGB()/base.TotalTrafficGB(),
			res.MemEnergyJ/1e3, res.CPUEnergyJ/1e3,
			res.MaxAMB, res.Overshoots)
	}
}
