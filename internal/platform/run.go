// The measurement loop: software DTM at a one-second interval over the
// emulated server, reproducing the §5.3 experimental methodology (batch
// jobs, pfmon-style counters, power/thermal instrumentation).

package platform

import (
	"fmt"
	"math/rand"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/power"
	"dramtherm/internal/thermal"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// intervalS is the software DTM period in seconds (§5.2.1).
const intervalS = 1.0

// RunConfig describes one measured experiment.
type RunConfig struct {
	Machine Machine
	Policy  PolicyKind
	Mix     workload.Mix
	// RunsPerApp is the batch depth (paper: 10 for CPU2000, 5 for
	// CPU2006).
	RunsPerApp int
	// QuantumS is the Linux scheduling time slice used when two programs
	// share a core under DTM-ACG (default 100 ms, Fig. 5.15 varies it).
	QuantumS float64
	// InstrScale shrinks run lengths for tests.
	InstrScale float64
	// SensorSeed seeds sensor noise (0 = noiseless).
	SensorSeed int64
	// AmbientOverride replaces the machine's system ambient when nonzero
	// (Fig. 5.12 runs the SR1500AL at 26 °C).
	AmbientOverride fbconfig.Celsius
	// TDPOverride shifts the AMB TDP and all Table 5.1 boundaries by the
	// same margin when nonzero (Figs. 5.12/5.14).
	TDPOverride fbconfig.Celsius
	// ForceFreqIdx ≥ 0 pins the processor frequency for all running
	// levels (Fig. 5.13 compares policies at 3.0 vs 2.0 GHz).
	ForceFreqIdx int
	// MaxSeconds bounds the run (default 100,000).
	MaxSeconds float64
}

// WithDefaults returns c with every zero field that has a default filled
// in, exactly as a run sees it: configs whose WithDefaults values agree
// field by field describe the same run.
func (c RunConfig) WithDefaults() RunConfig {
	if c.RunsPerApp == 0 {
		c.RunsPerApp = 10
	}
	if c.QuantumS == 0 {
		c.QuantumS = 0.1
	}
	if c.InstrScale == 0 {
		c.InstrScale = 1
	}
	if c.MaxSeconds == 0 {
		c.MaxSeconds = 100000
	}
	if c.ForceFreqIdx == 0 {
		c.ForceFreqIdx = -1
	}
	return c
}

// RunResult is what the instrumented testbed reports.
type RunResult struct {
	Seconds  float64
	TimedOut bool

	ReadGB, WriteGB float64
	L2Misses        float64

	CPUEnergyJ float64
	MemEnergyJ float64
	AvgCPUWatt float64
	AvgInletC  float64 // memory inlet (processor exhaust) temperature
	MaxAMB     float64
	AMBTrace   []float64 // per second (quantized sensor readings)
	LevelTimeS [5]float64
	Completed  int
}

// TotalEnergyJ returns CPU+DRAM energy (Fig. 5.11's unit).
func (r RunResult) TotalEnergyJ() float64 { return r.CPUEnergyJ + r.MemEnergyJ }

// Server is one emulated testbed run.
type Server struct {
	cfg    RunConfig
	m      Machine
	store  *trace.Store
	policy dtm.Policy
	bounds dtm.Levels // the policy's boundaries, for LevelTimeS

	model  *thermal.Model
	amb    *thermal.AmbientModel
	sensor *thermal.Sensor

	queue []*workload.Profile
	cores []*pjob
	rot   int

	now float64
	res RunResult
}

// pjob is one batch entry on the platform.
type pjob struct {
	prof      *workload.Profile
	remaining float64
	total     float64
}

// NewServer builds a run. The store should be shared across runs of the
// same machine so level-1 results are reused; it must have been created
// with NewLevel1(machine) as its builder (see NewStore).
func NewServer(cfg RunConfig, store *trace.Store) (*Server, error) {
	cfg = cfg.WithDefaults()
	if store == nil {
		return nil, fmt.Errorf("platform: nil store")
	}
	profs, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	m := cfg.Machine
	if cfg.AmbientOverride != 0 {
		m.SystemAmbient = cfg.AmbientOverride
	}
	if cfg.TDPOverride != 0 {
		shift := cfg.TDPOverride - m.AMBTDP
		m.AMBTDP = cfg.TDPOverride
		for i := range m.AMBLevels {
			m.AMBLevels[i] += shift
		}
	}

	policy, bounds, err := newPolicy(m, cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, m: m, store: store, policy: policy, bounds: bounds}
	amb := fbconfig.Ambient{PsiXi: m.PsiXi, TauCPUDRAM: 20}
	s.amb = thermal.NewAmbientModel(amb, m.SystemAmbient)
	idle := power.DIMMPower{AMB: fbconfig.DefaultAMBPower.IdleLast, DRAM: fbconfig.DefaultDRAMPower.Static}
	s.model = thermal.NewModel(m.Cooling, m.SystemAmbient, m.DIMMsPerChannel*m.LogicalChannels, idle)
	if cfg.SensorSeed != 0 {
		s.sensor = thermal.NewSensor(rand.New(rand.NewSource(cfg.SensorSeed)))
	}
	for r := 0; r < cfg.RunsPerApp; r++ {
		s.queue = append(s.queue, profs...)
	}
	s.cores = make([]*pjob, 4)
	for i := range s.cores {
		s.dispatch(i)
	}
	return s, nil
}

// NewStore returns a trace store backed by the machine's level-1 builder.
func NewStore(m Machine, seed int64) *trace.Store {
	return trace.NewStore(NewLevel1(m, seed))
}

func (s *Server) dispatch(i int) {
	if len(s.queue) == 0 {
		s.cores[i] = nil
		return
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	total := p.Instructions() * s.cfg.InstrScale
	s.cores[i] = &pjob{prof: p, remaining: total, total: total}
}

func (s *Server) done() bool {
	if len(s.queue) > 0 {
		return false
	}
	for _, j := range s.cores {
		if j != nil {
			return false
		}
	}
	return true
}

// schedule is one concurrent execution pattern: executing[i] is the job
// index (0..3) running on physical core i, or -1.
type schedule struct {
	executing [4]int
	weight    float64
	shared    int // number of cores in time-shared mode
}

// schedules enumerates the concurrent execution patterns for ncores
// active cores. Sockets are {0,1} and {2,3}; at 3 cores one socket (the
// rotating one) time-shares; at 2 cores both do.
func (s *Server) schedules(ncores int) []schedule {
	js := [4]int{-1, -1, -1, -1}
	for i, j := range s.cores {
		if j != nil {
			js[i] = i
		}
	}
	full := schedule{executing: js, weight: 1}
	switch {
	case ncores >= 4:
		return []schedule{full}
	case ncores == 3:
		// One socket shares: alternate its two jobs on one core.
		shareSock := s.rot % 2
		var out []schedule
		a, b := 2*shareSock, 2*shareSock+1
		for _, run := range []int{a, b} {
			sc := full
			sc.executing[a], sc.executing[b] = -1, -1
			sc.executing[2*shareSock] = run
			sc.weight = 0.5
			sc.shared = 1
			out = append(out, sc)
		}
		return out
	default: // 2 cores: both sockets share
		var out []schedule
		for _, r0 := range []int{0, 1} {
			for _, r1 := range []int{2, 3} {
				var sc schedule
				sc.executing = [4]int{-1, -1, -1, -1}
				if s.cores[r0] != nil {
					sc.executing[0] = r0
				}
				if s.cores[r1] != nil {
					sc.executing[2] = r1
				}
				sc.weight = 0.25
				sc.shared = 2
				out = append(out, sc)
			}
		}
		return out
	}
}

// Run executes the batch and returns the measurements.
func (s *Server) Run() (RunResult, error) {
	var cpuWattSum, inletSum float64
	steps := 0
	for !s.done() {
		if s.now >= s.cfg.MaxSeconds {
			s.res.TimedOut = true
			break
		}
		if err := s.step(&cpuWattSum, &inletSum); err != nil {
			return s.res, err
		}
		steps++
	}
	s.res.Seconds = s.now
	if steps > 0 {
		s.res.AvgCPUWatt = cpuWattSum / float64(steps)
		s.res.AvgInletC = inletSum / float64(steps)
	}
	return s.res, nil
}

// decide returns the running state the policy picks for an AMB sensor
// reading, with ForceFreqIdx applied, and the LevelTimeS index of the
// reading's emergency level.
func (s *Server) decide(reading fbconfig.Celsius) (dtm.Action, int) {
	a := s.policy.Decide(dtm.Input{AMB: reading, Now: s.now, Dt: intervalS})
	if s.cfg.ForceFreqIdx >= 0 && a.FreqIndex < s.cfg.ForceFreqIdx {
		a.FreqIndex = s.cfg.ForceFreqIdx
	}
	return a, s.bounds.Level(reading, 0) - 1
}

// step advances one DTM interval.
func (s *Server) step(cpuWattSum, inletSum *float64) error {
	const dt = intervalS

	// Sensor read and policy decision.
	reading := s.model.HottestAMB()
	if s.sensor != nil {
		reading = s.sensor.Read(reading)
	}
	a, lvl := s.decide(reading)
	s.res.LevelTimeS[lvl] += dt
	s.rot++

	freq := s.m.CPU.Levels[a.FreqIndex]
	scheds := s.schedules(a.ActiveCores)

	// Linux time-quantum switch cost on shared cores (§5.4.5, Fig. 5.15):
	// each switch-in refills the incoming program's share of the L2; below
	// ~20 ms the refill dominates and both misses and runtime climb. The
	// stall factor is applied to shared-mode progress below, the refill
	// misses to the traffic.
	nshared := scheds[len(scheds)-1].shared
	var extraMissPS, stallFrac float64
	if nshared > 0 && s.cfg.QuantumS > 0 {
		var refillLines, njobs float64
		for _, j := range s.cores {
			if j == nil {
				continue
			}
			hl := float64(j.prof.HotKB) * 1024 / 64
			if hl > 32768 {
				hl = 32768
			}
			refillLines += hl
			njobs++
		}
		if njobs > 0 {
			refillLines /= njobs
		}
		extraMissPS = refillLines / s.cfg.QuantumS * float64(nshared)
		stallFrac = extraMissPS * 150e-9 / 4 // ~150 ns refill latency, MLP ≈ 4
		if stallFrac > 0.5 {
			stallFrac = 0.5
		}
	}

	var readG, writeG, l2miss float64
	var sumVIPC, sumMemBound float64
	for _, sc := range scheds {
		// Build the domain key for this concurrent pattern.
		doms := [][]string{{}, {}}
		for c := 0; c < 4; c++ {
			ji := sc.executing[c]
			if ji < 0 || s.cores[ji] == nil {
				continue
			}
			doms[c/2] = append(doms[c/2], s.cores[ji].prof.Name)
		}
		dp := trace.DesignPoint{
			Apps:      domainKey(doms),
			FreqGHz:   freq.FreqGHz,
			BWCapGBps: a.BWCapGBps,
		}
		rates, err := s.store.Get(dp)
		if err != nil {
			return err
		}
		for c := 0; c < 4; c++ {
			ji := sc.executing[c]
			if ji < 0 || s.cores[ji] == nil {
				continue
			}
			j := s.cores[ji]
			ar := rates.PerApp[j.prof.Name]
			if ar.InstrPerSec <= 0 {
				continue
			}
			mul := j.prof.PhaseMul(1 - j.remaining/j.total)
			den := 1 - ar.MemBoundFrac + ar.MemBoundFrac*mul
			if den <= 0 {
				den = 1
			}
			rate := ar.InstrPerSec / den * (1 - stallFrac)
			ratio := rate / ar.InstrPerSec
			w := sc.weight
			readG += ar.ReadGBps * mul * ratio * w
			writeG += ar.WriteGBps * mul * ratio * w
			l2miss += ar.L2MissPerSec * mul * ratio * w * dt
			j.remaining -= rate * w * dt
			sumVIPC += freq.Volt * ar.IPCRef * ratio * w
			sumMemBound += ar.MemBoundFrac * w
		}
	}
	readG += extraMissPS * 64 / 1e9
	l2miss += extraMissPS * dt

	s.res.ReadGB += readG * dt
	s.res.WriteGB += writeG * dt
	s.res.L2Misses += l2miss

	// Power and thermal.
	perCh := power.ChannelTraffic{
		Read:  readG / float64(s.m.PhysicalChannels),
		Write: writeG / float64(s.m.PhysicalChannels),
		Share: power.EvenShares(s.m.DIMMsPerChannel * s.m.LogicalChannels),
	}
	pw, err := power.ChannelWatts(fbconfig.DefaultDRAMPower, fbconfig.DefaultAMBPower, perCh)
	if err != nil {
		return err
	}
	var memW float64
	for _, p := range pw {
		memW += (p.AMB + p.DRAM) * float64(s.m.PhysicalChannels)
	}
	s.res.MemEnergyJ += memW * dt

	// CPU power: active cores per socket under the current level.
	var perSock [2]int
	switch {
	case a.ActiveCores >= 4:
		perSock = [2]int{2, 2}
	case a.ActiveCores == 3:
		perSock = [2]int{2, 1}
		if s.rot%2 == 0 {
			perSock = [2]int{1, 2}
		}
	default:
		perSock = [2]int{1, 1}
	}
	util := 1 - sumMemBound/4
	if util < 0 {
		util = 0
	}
	cpuW := s.m.CPU.Watts(perSock, a.FreqIndex, util)
	s.res.CPUEnergyJ += cpuW * dt
	*cpuWattSum += cpuW

	// Ambient (memory inlet) = system ambient + CPU preheat, Eq. 3.6.
	inlet := s.amb.Advance([]thermal.CoreActivity{{Volt: 1, IPC: sumVIPC}}, dt)
	*inletSum += inlet
	s.model.Ambient = inlet
	if err := s.model.Advance(pw, dt); err != nil {
		return err
	}
	if a := s.model.HottestAMB(); a > s.res.MaxAMB {
		s.res.MaxAMB = a
	}
	s.res.AMBTrace = append(s.res.AMBTrace, reading)

	// Completions.
	for i, j := range s.cores {
		if j != nil && j.remaining <= 0 {
			s.res.Completed++
			s.dispatch(i)
		}
	}

	s.now += dt
	return nil
}

// RunPlatform is the high-level helper.
func RunPlatform(cfg RunConfig, store *trace.Store) (RunResult, error) {
	s, err := NewServer(cfg, store)
	if err != nil {
		return RunResult{}, err
	}
	return s.Run()
}
