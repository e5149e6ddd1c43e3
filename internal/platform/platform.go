// Package platform emulates the two Chapter 5 server testbeds — the Dell
// PowerEdge 1950 and the instrumented Intel SR1500AL — on top of the same
// power/thermal substrate as the Chapter 4 simulator. The machines have
// two dual-core Xeon 5160 sockets (one shared L2 per socket), FBDIMM
// memory behind an Intel-5000X-style controller, strong CPU→memory
// thermal interaction (the cooling air passes the processors before the
// DIMMs), noisy AMB sensors, and software DTM with a one-second interval
// implemented through the three OS mechanisms of §5.2.1: chipset
// activation-window bandwidth throttling, CPU hotplug (core gating with
// Linux time-quantum sharing of the remaining core), and cpufreq DVFS.
package platform

import (
	"fmt"
	"sort"
	"strings"

	"dramtherm/internal/cpu"
	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memctrl"
	"dramtherm/internal/power"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// Machine describes one server.
type Machine struct {
	Name string

	// Memory geometry (logical channels of ganged physical pairs).
	LogicalChannels  int
	DIMMsPerChannel  int
	PhysicalChannels int

	// Thermal characterization, calibrated to the measured curves of
	// §5.4.1 (idle AMB ≈ 81 °C at 36 °C ambient on the SR1500AL; swim
	// reaching ≈ 96–100 °C).
	Cooling fbconfig.Cooling
	// SystemAmbient is the front-panel (room/hot-box) temperature.
	SystemAmbient fbconfig.Celsius
	// PsiXi is the measured CPU→memory interaction coefficient (Eq. 3.6);
	// ≈ 10 °C of preheat at full load on these chassis.
	PsiXi float64

	// AMB thermal design point and Table 5.1 emergency boundaries.
	AMBTDP    fbconfig.Celsius
	AMBLevels [4]fbconfig.Celsius

	// BW caps per running level L2..L4 in GB/s (L1 is uncapped); the last
	// entry doubles as the worst-case open-loop safety cap.
	BWCaps [3]float64

	CPU power.Xeon5160

	// FSBGBps is the front-side-bus ceiling on aggregate memory traffic:
	// the Xeon 5160 sockets reach the 5000X chipset over two FSBs, which
	// bound achievable memory throughput well below the FBDIMM channel
	// peak on these machines.
	FSBGBps float64

	// SimParams drive the platform's level-1 machine.
	SimParams fbconfig.SimParams
}

// platformSimParams builds the level-1 machine parameters for m.
func platformSimParams(logicalChannels, dimmsPerChannel int) fbconfig.SimParams {
	p := fbconfig.DefaultSimParams
	p.LogicalChannels = logicalChannels
	p.DIMMsPerChannel = dimmsPerChannel
	p.PhysicalChannels = 2 * logicalChannels
	p.L2Ways = 16 // the Xeon 5160 L2 is 4 MB 16-way (§5.3.1)
	p.DVFS = []fbconfig.DVFSLevel{
		{FreqGHz: 3.000, Volt: 1.2125},
		{FreqGHz: 2.667, Volt: 1.1625},
		{FreqGHz: 2.333, Volt: 1.1000},
		{FreqGHz: 2.000, Volt: 1.0375},
	}
	return p
}

// PE1950 returns the Dell PowerEdge 1950 testbed: stand-alone box in an
// air-conditioned room (26 °C), two FBDIMMs, artificial AMB TDP of 90 °C
// (§5.3.1, Table 5.1).
func PE1950() Machine {
	return Machine{
		Name:             "PE1950",
		LogicalChannels:  1,
		DIMMsPerChannel:  1, // one ganged position = 2 physical DIMMs
		PhysicalChannels: 2,
		Cooling: fbconfig.Cooling{
			// Calibrated so swim-class workloads peak near the measured
			// ~96 °C at room ambient and the TDP of 90 °C sustains
			// ≈9 GB/s (§5.4.1, Fig. 5.5).
			Spreader: fbconfig.AOHS, AirVelocity: 2.0,
			PsiAMB: 6.5, PsiDRAMAMB: 1.9, PsiDRAM: 2.5, PsiAMBDRAM: 3.0,
			TauAMB: 50, TauDRAM: 100,
		},
		SystemAmbient: 26,
		PsiXi:         3.0, // processors misaligned with DIMMs → weaker preheat
		AMBTDP:        90,
		AMBLevels:     [4]fbconfig.Celsius{76, 80, 84, 88},
		BWCaps:        [3]float64{4, 3, 2},
		CPU:           power.DefaultXeon5160,
		FSBGBps:       8,
		SimParams:     platformSimParams(1, 1),
	}
}

// SR1500AL returns the instrumented Intel SR1500AL testbed: hot-box
// enclosure (36 °C default), four FBDIMMs, AMB TDP 100 °C (Table 5.1).
func SR1500AL() Machine {
	return Machine{
		Name:             "SR1500AL",
		LogicalChannels:  2,
		DIMMsPerChannel:  1, // 4 physical DIMMs
		PhysicalChannels: 4,
		Cooling: fbconfig.Cooling{
			// Calibrated to the measured curves of Fig. 5.4: idle AMB near
			// 80 °C in the 36 °C hot box, swim/mgrid reaching 100 °C in
			// ≈150 s, and a 100 °C TDP sustaining ≈10 GB/s.
			Spreader: fbconfig.AOHS, AirVelocity: 1.5,
			PsiAMB: 9.5, PsiDRAMAMB: 3.2, PsiDRAM: 2.8, PsiAMBDRAM: 3.2,
			TauAMB: 50, TauDRAM: 100,
		},
		SystemAmbient: 36,
		PsiXi:         4.0, // one socket directly upstream of the DIMMs
		AMBTDP:        100,
		AMBLevels:     [4]fbconfig.Celsius{86, 90, 94, 98},
		BWCaps:        [3]float64{5, 4, 3},
		CPU:           power.DefaultXeon5160,
		FSBGBps:       8,
		SimParams:     platformSimParams(2, 1),
	}
}

// PolicyKind names the Chapter 5 DTM policies.
type PolicyKind int

const (
	// NoLimit disables thermal management (baseline).
	NoLimit PolicyKind = iota
	// BW is bandwidth throttling (§5.2.2 DTM-BW).
	BW
	// ACG is adaptive core gating (DTM-ACG).
	ACG
	// CDVFS is coordinated DVFS (DTM-CDVFS).
	CDVFS
	// COMB combines ACG and CDVFS (DTM-COMB, §5.2.2).
	COMB
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case NoLimit:
		return "No-limit"
	case BW:
		return "DTM-BW"
	case ACG:
		return "DTM-ACG"
	case CDVFS:
		return "DTM-CDVFS"
	case COMB:
		return "DTM-COMB"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// PolicyKinds lists the Chapter 5 policies in presentation order.
func PolicyKinds() []PolicyKind { return []PolicyKind{NoLimit, BW, ACG, CDVFS, COMB} }

// runLevel is the thermal running level 0..3 (Table 5.1 L1..L4), plus a
// safety level 4 (open-loop cap engaged above the TDP band).
type runLevel struct {
	cores   int     // active cores (4, 3, or 2)
	freqIdx int     // Xeon DVFS index
	cap     float64 // GB/s, +Inf = uncapped
}

// levelTable returns the Table 5.1 running levels for policy k on m.
func levelTable(m Machine, k PolicyKind) []runLevel {
	inf := dtm.NoCap()
	switch k {
	case NoLimit:
		return []runLevel{{4, 0, inf}, {4, 0, inf}, {4, 0, inf}, {4, 0, inf}, {4, 0, inf}}
	case BW:
		return []runLevel{
			{4, 0, inf}, {4, 0, m.BWCaps[0]}, {4, 0, m.BWCaps[1]}, {4, 0, m.BWCaps[2]},
			{4, 0, m.BWCaps[2]},
		}
	case ACG:
		return []runLevel{
			{4, 0, inf}, {3, 0, inf}, {2, 0, inf}, {2, 0, m.BWCaps[2]},
			{2, 0, m.BWCaps[2]},
		}
	case CDVFS:
		return []runLevel{
			{4, 0, inf}, {4, 1, inf}, {4, 2, inf}, {4, 3, inf},
			{4, 3, m.BWCaps[2]},
		}
	case COMB:
		return []runLevel{
			{4, 0, inf}, {3, 1, inf}, {2, 2, inf}, {2, 3, inf},
			{2, 3, m.BWCaps[2]},
		}
	default:
		panic(fmt.Sprintf("platform: unknown policy %v", k))
	}
}

// levelOf maps a sensor reading onto a running level index using the
// machine's Table 5.1 boundaries (index 4 = above the top band).
func levelOf(m Machine, amb fbconfig.Celsius) int {
	for i, b := range m.AMBLevels {
		if amb < b {
			return i
		}
	}
	return len(m.AMBLevels)
}

// domainKey canonicalizes a per-socket assignment into a design-point key
// that preserves which L2 domain each program runs in:
// "appA|appB/appC|appD" (sorted within each domain, domains sorted).
func domainKey(domains [][]string) string {
	parts := make([]string, 0, len(domains))
	for _, d := range domains {
		apps := make([]string, 0, len(d))
		for _, a := range d {
			if a != "" {
				apps = append(apps, a)
			}
		}
		sort.Strings(apps)
		parts = append(parts, strings.Join(apps, "|"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "/")
}

// Level1 builds rate records for the platform machine: two L2 domains,
// Xeon frequencies, platform memory geometry. The design-point Apps key
// is the domainKey format above.
type Level1 struct {
	Machine   Machine
	WarmupNS  float64
	MeasureNS float64
	Seed      int64
}

// NewLevel1 returns a builder for m.
func NewLevel1(m Machine, seed int64) *Level1 {
	return &Level1{Machine: m, WarmupNS: 1.5e6, MeasureNS: 1.5e6, Seed: seed}
}

// Build implements trace.Builder.
func (l *Level1) Build(dp trace.DesignPoint) (trace.Rates, error) {
	if dp.MemOff || dp.Apps == "" || dp.FreqGHz <= 0 {
		return trace.Zero(dp), nil
	}
	params := l.Machine.SimParams
	mem, err := memctrl.New(memctrl.DefaultConfig(params))
	if err != nil {
		return trace.Rates{}, err
	}
	cap := dp.BWCapGBps
	if l.Machine.FSBGBps > 0 && cap > l.Machine.FSBGBps {
		cap = l.Machine.FSBGBps
	}
	mem.SetBandwidthCap(cap)

	domains := strings.Split(dp.Apps, "/")
	var names []string
	var l2dom []int
	for di, d := range domains {
		if d == "" {
			continue
		}
		for _, a := range strings.Split(d, "|") {
			names = append(names, a)
			l2dom = append(l2dom, di)
		}
	}
	if len(names) > params.Cores {
		return trace.Rates{}, fmt.Errorf("platform: %d apps exceed %d cores", len(names), params.Cores)
	}
	for len(l2dom) < params.Cores {
		l2dom = append(l2dom, 0)
	}
	cfg := cpu.Config{
		Cores:      params.Cores,
		MaxFreqGHz: l.Machine.CPU.Levels[0].FreqGHz,
		L2Domain:   l2dom,
		Params:     params,
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
	return l.collect(dp, mc, names, l2dom)
}

func (l *Level1) collect(dp trace.DesignPoint, mc *cpu.Multicore, names []string, l2dom []int) (trace.Rates, error) {
	secs := l.MeasureNS / 1e9
	r := trace.Rates{Point: dp, PerApp: make(map[string]trace.AppRates, len(names))}
	counts := make(map[string]float64, len(names))
	maxF := l.Machine.CPU.Levels[0].FreqGHz
	for i, n := range names {
		cs := mc.Cores()[i].Stats()
		l2 := mc.L2(l2dom[i]).CoreStats(i)
		busy := cs.BusyCycles + cs.StallCycles
		mb := 0.0
		if busy > 0 {
			mb = cs.StallCycles / busy
		}
		ar := trace.AppRates{
			InstrPerSec:    cs.Retired / secs,
			IPCRef:         cs.Retired / (l.MeasureNS * maxF),
			ReadGBps:       float64(l2.Misses+cs.SpecIssued) * 64 / secs / 1e9,
			WriteGBps:      float64(l2.Writebacks) * 64 / secs / 1e9,
			L2MissPerSec:   float64(l2.Misses) / secs,
			L2AccessPerSec: float64(l2.Accesses) / secs,
			MemBoundFrac:   mb,
		}
		if prev, ok := r.PerApp[n]; ok {
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
