// Package platform emulates the two Chapter 5 server testbeds — the Dell
// PowerEdge 1950 and the instrumented Intel SR1500AL — on top of the same
// power/thermal substrate as the Chapter 4 simulator. The machines have
// two dual-core Xeon 5160 sockets (one shared L2 per socket), FBDIMM
// memory behind an Intel-5000X-style controller, strong CPU→memory
// thermal interaction (the cooling air passes the processors before the
// DIMMs), noisy AMB sensors, and software DTM with a one-second interval.
// The DTM decision is a dtm level-table policy per Table 5.1 (newPolicy);
// the server applies its action through the three OS mechanisms of
// §5.2.1: chipset activation-window bandwidth throttling, CPU hotplug
// (core gating with Linux time-quantum sharing of the remaining core),
// and cpufreq DVFS.
package platform

import (
	"fmt"
	"sort"
	"strings"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/power"
	"dramtherm/internal/sim"
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

// newPolicy builds the software DTM policy k for m (Table 5.1): a dtm
// level table over the machine's AMB boundaries, with a fifth, safety
// level that engages the open-loop cap above the top band. The
// platforms have no DRAM sensor, so their DRAM boundaries never bind.
// It also returns the boundaries, which index RunResult.LevelTimeS.
func newPolicy(m Machine, k PolicyKind) (dtm.Policy, dtm.Levels, error) {
	inf := dtm.NoCap()
	levels := dtm.Levels{AMB: m.AMBLevels, DRAM: [4]fbconfig.Celsius{inf, inf, inf, inf}}
	row := func(cores, freqIdx int, cap float64) dtm.Action {
		return dtm.Action{ActiveCores: cores, FreqIndex: freqIdx, BWCapGBps: cap}
	}
	var actions []dtm.Action
	switch k {
	case NoLimit:
		return &dtm.NoLimit{Cores: 4}, levels, nil
	case BW:
		actions = []dtm.Action{
			row(4, 0, inf), row(4, 0, m.BWCaps[0]), row(4, 0, m.BWCaps[1]), row(4, 0, m.BWCaps[2]),
			row(4, 0, m.BWCaps[2]),
		}
	case ACG:
		// ACG keeps at least one core per socket (§5.2.2).
		actions = []dtm.Action{
			row(4, 0, inf), row(3, 0, inf), row(2, 0, inf), row(2, 0, m.BWCaps[2]),
			row(2, 0, m.BWCaps[2]),
		}
	case CDVFS:
		actions = []dtm.Action{
			row(4, 0, inf), row(4, 1, inf), row(4, 2, inf), row(4, 3, inf),
			row(4, 3, m.BWCaps[2]),
		}
	case COMB:
		actions = []dtm.Action{
			row(4, 0, inf), row(3, 1, inf), row(2, 2, inf), row(2, 3, inf),
			row(2, 3, m.BWCaps[2]),
		}
	default:
		return nil, levels, fmt.Errorf("platform: unknown policy %v", k)
	}
	p, err := dtm.NewTable(k.String(), levels, actions, 0)
	return p, levels, err
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

// NewLevel1 returns the level-1 builder for m: its memory geometry,
// Xeon frequencies and FSB ceiling. Design points carry the domainKey
// form above, one L2 domain per socket.
func NewLevel1(m Machine, seed int64) *sim.Level1 {
	l := sim.NewLevel1(seed)
	l.Params = m.SimParams
	l.MaxFreqGHz = m.CPU.Levels[0].FreqGHz
	l.FSBGBps = m.FSBGBps
	return l
}
