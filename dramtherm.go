// Package dramtherm is the public facade of the library: a reproduction
// of "Thermal Modeling and Management of DRAM Memory Systems" (Lin,
// Zheng, Zhu, David, Zhang — ISCA 2007, plus the Chapter 5 follow-up
// measurement study).
//
// The facade exposes the high-level workflow — build an Engine, name a
// run by value as a Spec (workload mix, DTM policy, cooling
// configuration, thermal model), then Run or Sweep it through the
// engine's cache — while the full machinery lives in the internal
// packages:
//
//	internal/fbdimm, internal/memctrl  FBDIMM + controller simulator
//	internal/cpu, internal/cache       multicore and shared-L2 models
//	internal/workload                  synthetic SPEC application profiles
//	internal/power, internal/thermal   Chapter 3 models (Eqs. 3.1–3.6)
//	internal/pid, internal/dtm         PID controller and DTM policies
//	internal/sim                       two-level simulator (Level1 + MEMSpot)
//	internal/sweep                     cached, pooled, durable run engine
//	internal/platform                  Chapter 5 server emulation
//	internal/exp                       one driver per paper table/figure
//
// Quickstart:
//
//	eng, _ := dramtherm.NewEngine(dramtherm.DefaultConfig())
//	defer eng.Close()
//	res, _, _ := eng.Run(context.Background(), dramtherm.Spec{
//		Mix: "W1", Policy: "DTM-ACG", Cooling: "AOHS_1.5", Model: "isolated",
//	})
//	fmt.Println(res.Seconds, res.MaxAMB)
package dramtherm

import (
	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/workload"
)

// Re-exported types. See the internal packages for full documentation.
type (
	// Config parameterizes an Engine's simulation system (core.Config).
	Config = core.Config
	// Result is a level-2 run result (sim.MEMSpotResult).
	Result = sim.MEMSpotResult
	// Mix is a multiprogramming workload (workload.Mix).
	Mix = workload.Mix
	// ThermalLimits are the TDP/TRP thresholds DTM policies act on
	// (fbconfig.ThermalLimits).
	ThermalLimits = fbconfig.ThermalLimits
)

// DefaultConfig returns the Chapter 4 system configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// MixByName returns a Table 4.2/5.2 workload mix (W1..W8, W11, W12).
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// Mixes returns all workload mixes of the paper.
func Mixes() []Mix { return workload.Mixes }

// PolicyNames lists the available Chapter 4 DTM policies.
func PolicyNames() []string { return core.PolicyNames() }
