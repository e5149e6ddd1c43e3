// Package sim implements the two-level thermal simulator of §4.3.1
// (Fig. 4.1). Level1 is the architectural level: it runs the
// cycle-driven multicore + shared-L2 + FBDIMM model for a short
// steady-state window per design point and distills it to a trace.Rates
// record. MEMSpot is the thermal level: it replays rate records in 10 ms
// windows through the Chapter 3 power and thermal models with a DTM
// policy in the loop, for thousands of simulated seconds.
package sim

import (
	"fmt"

	"dramtherm/internal/cpu"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memctrl"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// Level1 builds trace.Rates records by direct simulation. It implements
// trace.Builder.
type Level1 struct {
	// Params are the Table 4.1 machine parameters.
	Params fbconfig.SimParams
	// MaxFreqGHz is the top core clock (reference frequency of Eq. 3.6).
	MaxFreqGHz float64
	// WarmupNS and MeasureNS set the simulation window. The defaults
	// (1.5 ms + 1.5 ms) warm a 4 MB L2 several times over before
	// measuring.
	WarmupNS  float64
	MeasureNS float64
	// Seed drives the synthetic address streams.
	Seed int64
}

// NewLevel1 returns a builder with the Chapter 4 configuration.
func NewLevel1(seed int64) *Level1 {
	return &Level1{
		Params:     fbconfig.DefaultSimParams,
		MaxFreqGHz: fbconfig.DefaultSimParams.DVFS[0].FreqGHz,
		WarmupNS:   1.5e6,
		MeasureNS:  1.5e6,
		Seed:       seed,
	}
}

// Build implements trace.Builder: it simulates the design point and
// returns the measured rates.
func (l *Level1) Build(dp trace.DesignPoint) (trace.Rates, error) {
	names := dp.AppNames()
	if len(names) == 0 || dp.MemOff || dp.FreqGHz <= 0 {
		return trace.Zero(dp), nil
	}
	if len(names) > l.Params.Cores {
		return trace.Rates{}, fmt.Errorf("sim: %d apps exceed %d cores", len(names), l.Params.Cores)
	}

	mem, err := memctrl.New(memctrl.DefaultConfig(l.Params))
	if err != nil {
		return trace.Rates{}, err
	}
	mem.SetBandwidthCap(dp.BWCapGBps)

	cfg := cpu.Config{
		Cores:      l.Params.Cores,
		MaxFreqGHz: l.MaxFreqGHz,
		L2Domain:   make([]int, l.Params.Cores),
		Params:     l.Params,
	}
	mc, err := cpu.New(cfg, mem, l.Seed)
	if err != nil {
		return trace.Rates{}, err
	}
	mc.SetFreq(dp.FreqGHz)
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return trace.Rates{}, err
		}
		mc.Assign(i, p, 1)
	}

	mc.RunFor(l.WarmupNS)
	mc.ResetStats()
	mc.RunFor(l.MeasureNS)

	defer mc.Release()
	return l.collect(dp, mc, names)
}

// collect turns simulator counters into a Rates record, averaging over
// instances of the same application name.
func (l *Level1) collect(dp trace.DesignPoint, mc *cpu.Multicore, names []string) (trace.Rates, error) {
	secs := l.MeasureNS / 1e9
	r := trace.Rates{Point: dp, PerApp: make(map[string]trace.AppRates, len(names))}

	counts := make(map[string]float64, len(names))
	for i, n := range names {
		cs := mc.Cores()[i].Stats()
		l2 := mc.L2(0).CoreStats(i)
		busy := cs.BusyCycles + cs.StallCycles
		mb := 0.0
		if busy > 0 {
			mb = cs.StallCycles / busy
		}
		readBytes := float64(l2.Misses+cs.SpecIssued) * 64
		writeBytes := float64(l2.Writebacks) * 64
		ar := trace.AppRates{
			InstrPerSec:    cs.Retired / secs,
			IPCRef:         cs.Retired / (l.MeasureNS * l.MaxFreqGHz),
			ReadGBps:       readBytes / secs / 1e9,
			WriteGBps:      writeBytes / secs / 1e9,
			L2MissPerSec:   float64(l2.Misses) / secs,
			L2AccessPerSec: float64(l2.Accesses) / secs,
			MemBoundFrac:   mb,
		}
		if prev, ok := r.PerApp[n]; ok {
			// Average instances of the same name.
			c := counts[n]
			r.PerApp[n] = trace.AppRates{
				InstrPerSec:    (prev.InstrPerSec*c + ar.InstrPerSec) / (c + 1),
				IPCRef:         (prev.IPCRef*c + ar.IPCRef) / (c + 1),
				ReadGBps:       (prev.ReadGBps*c + ar.ReadGBps) / (c + 1),
				WriteGBps:      (prev.WriteGBps*c + ar.WriteGBps) / (c + 1),
				L2MissPerSec:   (prev.L2MissPerSec*c + ar.L2MissPerSec) / (c + 1),
				L2AccessPerSec: (prev.L2AccessPerSec*c + ar.L2AccessPerSec) / (c + 1),
				MemBoundFrac:   (prev.MemBoundFrac*c + ar.MemBoundFrac) / (c + 1),
			}
		} else {
			r.PerApp[n] = ar
		}
		counts[n]++
	}

	ms := mc.Mem().Stats()
	r.TotalReadGBps = float64(ms.ReadBytes) / secs / 1e9
	r.TotalWriteGBps = float64(ms.WriteBytes) / secs / 1e9
	r.MeanLatencyNS = ms.MeanLatencyNS()
	return r, nil
}

// NewStore returns a trace store backed by a fresh Level1 builder.
func NewStore(seed int64) *trace.Store {
	return trace.NewStore(NewLevel1(seed))
}
